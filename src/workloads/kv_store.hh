/**
 * @file
 * A miniature RocksDB-shaped NoSQL store over mmap'ed files.
 *
 * Layout: a data file mapped into the process (this is where demand
 * paging happens — one 4 KB record per key, like the paper's 4 KB
 * record configuration), a WAL file appended through the write()
 * syscall path, and an amortised compaction write stream. The class
 * does not execute anything itself: it describes the layout and emits
 * the Op sequences for each request type; the YCSB and DBBench
 * workload drivers pull from it.
 */

#ifndef HWDP_WORKLOADS_KV_STORE_HH
#define HWDP_WORKLOADS_KV_STORE_HH

#include <deque>

#include "os/file_system.hh"
#include "os/vma.hh"
#include "workloads/workload.hh"

namespace hwdp::workloads {

class KvStore
{
  public:
    /**
     * @param data_vma  The mmap'ed data file (one record per page).
     * @param wal_file  WAL appended on updates/inserts.
     * @param n_keys    Loaded keys (records).
     */
    KvStore(os::Vma *data_vma, os::File *wal_file, std::uint64_t n_keys);

    std::uint64_t numKeys() const { return nKeys; }

    /** Grow the key space by one (insert); wraps at file capacity. */
    std::uint64_t insertKey();

    /** Virtual address of the record page for @p key. */
    VAddr recordAddr(std::uint64_t key) const;

    // ---- Request recipes: push the Op sequence for one request ------
    void emitRead(std::deque<Op> &ops, std::uint64_t key) const;
    void emitUpdate(std::deque<Op> &ops, std::uint64_t key);
    void emitInsert(std::deque<Op> &ops);
    void emitScan(std::deque<Op> &ops, std::uint64_t key,
                  unsigned length) const;
    void emitReadModifyWrite(std::deque<Op> &ops, std::uint64_t key);

    /** Checkpoint the mutable store state (key count, WAL cursor). */
    void serialize(sim::Serializer &s);

  private:
    os::Vma *data;
    os::File *wal;
    std::uint64_t nKeys;
    std::uint64_t walCursor = 0;

    ComputeSpec indexLookup;   ///< Memtable + index block search.
    ComputeSpec valueProcess;  ///< Deserialise + checksum the record.
    ComputeSpec memtableInsert;
};

} // namespace hwdp::workloads

#endif // HWDP_WORKLOADS_KV_STORE_HH
