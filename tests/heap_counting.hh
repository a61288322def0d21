/**
 * @file
 * A counting global allocator for the tests' zero-allocation claims.
 *
 * heap_counting.cc replaces the global operator new/delete so every
 * heap allocation in the test binary bumps heapAllocs(); a test reads
 * it around a window that must not allocate. The replacement lives in
 * its own translation unit, so no test's new-expression is ever
 * inlined against the malloc/free pair behind it.
 *
 * ASan ships its own operator new/delete interceptors; defining the
 * global allocator alongside them makes allocations from
 * uninstrumented DSOs (libgtest) look type-mismatched. Under ASan the
 * override is compiled out, HWDP_HEAP_COUNTING is 0 and the counting
 * assertions skip — the regular build keeps the proof.
 */

#ifndef HWDP_TESTS_HEAP_COUNTING_HH
#define HWDP_TESTS_HEAP_COUNTING_HH

#include <cstdint>

#ifndef HWDP_HEAP_COUNTING
#if defined(__SANITIZE_ADDRESS__)
#define HWDP_HEAP_COUNTING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define HWDP_HEAP_COUNTING 0
#else
#define HWDP_HEAP_COUNTING 1
#endif
#else
#define HWDP_HEAP_COUNTING 1
#endif
#endif

namespace hwdp::testing {

/** Global operator new calls so far (0 forever when not counting). */
std::uint64_t heapAllocs();

} // namespace hwdp::testing

#endif // HWDP_TESTS_HEAP_COUNTING_HH
