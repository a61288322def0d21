/**
 * @file
 * Whole-machine consistency invariants, checkable mid-simulation.
 *
 * The properties that must hold at any event boundary regardless of
 * paging mode or injected faults:
 *
 *  1. Page tables are sane: every present PTE references an allocated,
 *     in-use frame below the frame count; no frame is mapped twice;
 *     every LBA-augmented PTE carries exactly the LBA the file system
 *     assigns that page (or the zero-fill LBA for anonymous areas).
 *  2. Free-page-queue frames are allocated, flagged inSmuQueue and
 *     never simultaneously mapped.
 *  3. The PMSHR holds no duplicate PTE addresses, its occupancy
 *     matches its valid entries, and the SMU's isolated NVMe queues
 *     never carry more commands than the PMSHR has entries in flight.
 *  4. Frame flags compose: inPageCache implies a file identity, LRU
 *     membership implies inUse, inSmuQueue excludes LRU membership.
 *     The page cache holds exactly the frames flagged inPageCache,
 *     each under its own (file, index). On a quiesced machine (empty
 *     event queue) no frame is orphaned: every allocated frame is
 *     mapped by a present PTE or a 2 MB leaf, on an LRU list, in the
 *     page cache or in a free page queue.
 *  5. Socket topology is coherent (multi-socket machines): every PTE
 *     routes to an existing socket and carries its file's device
 *     socket id; free-page queues hold only home-socket frames;
 *     shootdown epochs agree across all sockets.
 *
 * checkInvariants() returns human-readable violation strings (empty =
 * machine consistent), so tests can EXPECT the vector empty and get a
 * useful message when it is not.
 */

#ifndef HWDP_TESTING_INVARIANTS_HH
#define HWDP_TESTING_INVARIANTS_HH

#include <string>
#include <vector>

namespace hwdp::system {
class System;
}

namespace hwdp::testing {

/** Check every invariant on @p sys; empty result = consistent. */
std::vector<std::string> checkInvariants(system::System &sys);

} // namespace hwdp::testing

#endif // HWDP_TESTING_INVARIANTS_HH
