#include "tests/heap_counting.hh"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> nAllocs{0};

} // namespace

std::uint64_t
hwdp::testing::heapAllocs()
{
    return nAllocs.load();
}

#if HWDP_HEAP_COUNTING

void *
operator new(std::size_t n)
{
    ++nAllocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return operator new(n);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

#endif // HWDP_HEAP_COUNTING
