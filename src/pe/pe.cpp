#include "pe/pe.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "obs/trace.hpp"
#include "pe/arena.hpp"
#include "sink/spill.hpp"

namespace kagen::pe {
namespace {

/// True while the current thread executes inside a parallel section; nested
/// parallel_for calls then run inline instead of deadlocking on the pool.
thread_local bool t_inside_pool = false;

/// One parallel section. Tasks are claimed in *affinity groups* of
/// adjacent tasks through one shared ticket counter: ticket k names the
/// k-th group in ascending task order, so every participant runs its groups
/// in ascending order and the section as a whole starts tasks in canonical
/// order — completion stays close to it, which is what lets ordered
/// delivery stream instead of parking (DESIGN.md §5).
struct Job {
    const std::function<void(u64)>* fn = nullptr;
    u64 num_tasks = 0;
    /// Group size; a whole group runs on the participant holding its ticket.
    u64 granularity = 1;
    /// Tasks the group grid is shifted by: task t belongs to group
    /// (t + grain_offset) / granularity, so the first group is the partial
    /// [0, granularity - grain_offset) when the caller's task 0 maps to a
    /// mid-group absolute id (a distributed rank's chunk subrange).
    u64 grain_offset = 0;
    u64 num_groups   = 0;
    std::atomic<u64> next_ticket{0};
    /// Participants that have left run_participant. The job owner may only
    /// reclaim the (stack-allocated) job once every participant has exited —
    /// "all tasks done" is not enough, late participants still draw tickets.
    std::atomic<u64> exited{0};
    /// First exception thrown by any task; rethrown on the submitting
    /// thread once the section has fully joined (a worker must never let an
    /// exception escape into worker_loop — that would std::terminate).
    std::mutex error_m;
    std::exception_ptr error;
    std::atomic<bool> cancelled{false};
};

/// RAII for the nesting flag: exceptions unwinding through a parallel
/// section must not leave the thread marked as inside the pool.
struct InsidePoolGuard {
    InsidePoolGuard() { t_inside_pool = true; }
    ~InsidePoolGuard() { t_inside_pool = false; }
};

/// Per-participant utilization, accumulated locally during the section and
/// flushed to the metrics registry once on exit — the hot loop never takes
/// the registry mutex, and per-worker counters survive as named
/// instruments (`pool.w007.busy_ns`) for the tool's `-v` report.
struct ParticipantStats {
    u64 busy_ns = 0;
    u64 tasks   = 0;

    void flush(u64 self) {
        if (tasks == 0) return;
        obs::Registry& reg = obs::Registry::global();
        char name[48];
        std::snprintf(name, sizeof(name), "pool.w%03llu.",
                      static_cast<unsigned long long>(self));
        const std::string prefix(name);
        reg.counter(prefix + "busy_ns").add(busy_ns);
        reg.counter(prefix + "tasks").add(tasks);
        reg.counter("pool.busy_ns").add(busy_ns);
        reg.counter("pool.tasks").add(tasks);
    }
};

/// Runs one task; false once the section is cancelled (by this task's
/// exception or an earlier one).
bool run_task(Job& job, u64 task, ParticipantStats& pstats) {
    if (job.cancelled.load(std::memory_order_acquire)) return false;
    const u64 t0 = obs::monotonic_now();
    try {
        (*job.fn)(task);
    } catch (...) {
        pstats.busy_ns += obs::monotonic_now() - t0;
        {
            std::lock_guard<std::mutex> lock(job.error_m);
            if (!job.error) job.error = std::current_exception();
        }
        job.cancelled.store(true, std::memory_order_release);
        return false;
    }
    pstats.busy_ns += obs::monotonic_now() - t0;
    ++pstats.tasks;
    return true;
}

void run_participant(Job& job, u64 self) {
    ParticipantStats pstats;
    for (;;) {
        const u64 k = job.next_ticket.fetch_add(1);
        if (k >= job.num_groups) break;
        const u64 g0    = k * job.granularity;
        const u64 first = g0 > job.grain_offset ? g0 - job.grain_offset : 0;
        const u64 last =
            std::min(g0 + job.granularity - job.grain_offset, job.num_tasks);
        u64 task = first;
        while (task < last && run_task(job, task, pstats)) ++task;
        if (task < last) break;
    }
    pstats.flush(self);
}

} // namespace

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

struct ThreadPool::Impl {
    std::vector<std::thread> workers;
    /// Serializes whole parallel sections: the job slot is single-occupancy,
    /// so concurrent parallel_for calls from distinct external threads must
    /// queue up instead of overwriting each other's published job.
    std::mutex submit_m;
    std::mutex m;
    std::condition_variable cv_work;
    std::condition_variable cv_done;
    Job* job         = nullptr;  // currently published job (or null)
    u64 participants = 0;        // participants of the published job
    u64 generation   = 0;
    bool stop        = false;

    void worker_loop(u64 index) {
        u64 seen = 0;
        for (;;) {
            Job* my_job = nullptr;
            u64 self    = 0;
            {
                std::unique_lock<std::mutex> lock(m);
                cv_work.wait(lock, [&] { return stop || generation != seen; });
                if (stop) return;
                seen = generation;
                // Participant 0 is the caller; workers take 1 + index.
                if (index + 1 < participants) {
                    my_job = job;
                    self   = index + 1;
                }
            }
            if (my_job == nullptr) continue;
            {
                InsidePoolGuard inside;
                run_participant(*my_job, self);
            }
            {
                std::lock_guard<std::mutex> lock(m);
                my_job->exited.fetch_add(1, std::memory_order_acq_rel);
                cv_done.notify_all();
            }
        }
    }
};

ThreadPool::ThreadPool(u64 num_threads) : impl_(new Impl) {
    if (num_threads == 0) {
        const u64 hw = std::thread::hardware_concurrency();
        num_threads  = hw > 1 ? hw - 1 : 0;
    }
    impl_->workers.reserve(num_threads);
    for (u64 i = 0; i < num_threads; ++i) {
        impl_->workers.emplace_back([this, i] { impl_->worker_loop(i); });
    }
}

ThreadPool::~ThreadPool() {
    {
        std::lock_guard<std::mutex> lock(impl_->m);
        impl_->stop = true;
    }
    impl_->cv_work.notify_all();
    for (auto& t : impl_->workers) t.join();
    delete impl_;
}

u64 ThreadPool::num_threads() const { return impl_->workers.size() + 1; }

void ThreadPool::parallel_for(u64 num_tasks, u64 max_workers,
                              const std::function<void(u64)>& fn,
                              u64 deal_granularity, u64 deal_phase) {
    if (num_tasks == 0) return;
    u64 participants = num_threads();
    if (max_workers != 0) participants = std::min(participants, max_workers);
    participants = std::min(participants, num_tasks);
    if (participants <= 1 || t_inside_pool) {
        // Inline path: single participant or nested call from a worker.
        for (u64 t = 0; t < num_tasks; ++t) fn(t);
        return;
    }
    std::lock_guard<std::mutex> submit_lock(impl_->submit_m);

    Job job;
    job.fn          = &fn;
    job.num_tasks   = num_tasks;
    job.granularity = std::max<u64>(deal_granularity, 1);
    const u64 phase = deal_phase % job.granularity;
    job.grain_offset = phase == 0 ? 0 : job.granularity - phase;
    job.num_groups =
        (num_tasks + job.grain_offset + job.granularity - 1) / job.granularity;

    {
        std::lock_guard<std::mutex> lock(impl_->m);
        impl_->job          = &job;
        impl_->participants = participants;
        ++impl_->generation;
    }
    impl_->cv_work.notify_all();

    {
        InsidePoolGuard inside;
        run_participant(job, 0);
    }

    {
        std::unique_lock<std::mutex> lock(impl_->m);
        job.exited.fetch_add(1, std::memory_order_acq_rel);
        impl_->cv_done.wait(lock, [&] {
            return job.exited.load(std::memory_order_acquire) == participants;
        });
        impl_->job          = nullptr;
        impl_->participants = 0;
    }
    if (job.error) std::rethrow_exception(job.error);
}

ThreadPool& ThreadPool::global() {
    static ThreadPool pool(0);
    return pool;
}

EdgeList union_undirected(const std::vector<EdgeList>& per_pe) {
    EdgeList all;
    for (const auto& part : per_pe) append(all, part);
    return undirected_set(std::move(all));
}

EdgeList union_directed(const std::vector<EdgeList>& per_pe) {
    EdgeList all;
    for (const auto& part : per_pe) append(all, part);
    sort_unique(all);
    return all;
}

// ---------------------------------------------------------------------------
// Chunked execution engine
// ---------------------------------------------------------------------------

namespace {

/// Per-chunk facade that forwards batches straight into a shared
/// order-insensitive sink (whose consume() is thread-safe by contract).
/// Uses external-buffer mode over caller-owned (stack) storage, so
/// constructing one allocates nothing — the unordered path is as
/// heap-quiet as the ordered arena path (DESIGN.md §14).
class ForwardingSink final : public EdgeSink {
public:
    ForwardingSink(EdgeSink& target, Edge* buffer, std::size_t capacity)
        : EdgeSink(buffer, capacity), target_(target) {}

    /// Edges handed to the target so far (exact after flush()).
    u64 edges_forwarded() const { return forwarded_; }

protected:
    void consume(const Edge* edges, std::size_t count) override {
        target_.deliver(edges, count);
        forwarded_ += count;
    }

private:
    EdgeSink& target_;
    u64 forwarded_ = 0;
};

/// Bounded-memory ordered delivery over a lock-free ready queue: completed
/// chunks publish their slab chains into fixed per-chunk slots (in RAM
/// while the byte budget allows, on disk past it), and a single
/// *designated drainer* streams the contiguous ready prefix into the sink.
/// There is no bookkeeping mutex any more: budget admission is a CAS on
/// the resident byte count, slot publication is one release store, and
/// drainer election is a CAS on a flag — producers never serialize against
/// each other or against sink/spill I/O, and slab recycling happens on the
/// arena's own freelist with no delivery state held (DESIGN.md §14).
///
/// Memory-ordering argument: a producer fills its slot's payload fields,
/// then publishes with `state.store(release)`; the drainer reads
/// `state.load(acquire)` before touching the payload, so every fill
/// happens-before its drain. Drainer election: the `draining_` CAS
/// (acq_rel) admits exactly one drainer, so sink delivery stays serialized
/// and in canonical chunk order — the output is byte-identical to a
/// sequential run. A producer whose CAS fails walks away and relies on the
/// active drainer's re-check loop: the drainer clears the flag *then*
/// re-examines the cursor slot, so a slot published concurrently with the
/// hand-off is never stranded. The cursor advances only inside the drainer
/// (release store), after the chunk's bytes left the resident count, so at
/// most one cursor-exempt chunk is ever resident and the documented
/// "budget + one chunk" peak bound is exact.
class OrderedDelivery {
public:
    OrderedDelivery(u64 num_chunks, u64 chunk_base, u64 max_buffered_bytes,
                    const std::string& spill_path, EdgeSink& sink,
                    SlabArena& arena)
        : slots_(num_chunks), chunk_base_(chunk_base),
          budget_(max_buffered_bytes), arena_(arena), sink_(sink) {
        // The spill file is only ever touched in bounded mode; create it
        // eagerly so producers never race on lazy construction.
        if (budget_ != 0) {
            spill_ = std::make_unique<spill::SpillFile>(spill_path);
        }
    }

    ~OrderedDelivery() {
        if (scratch_ != nullptr) arena_.release(scratch_);
    }

    /// Called by the producing worker when chunk `chunk` has finished
    /// generating. Takes ownership of the slab chain in `buf`.
    void complete(u64 chunk, ChunkBuffer buf) {
        const u64 bytes = buf.bytes();
        Slot& slot      = slots_[chunk];
        // After a sink failure the run is unwinding (parallel_for cancels
        // pending tasks, the drainer's exception is propagating) — park in
        // RAM without spill I/O and never re-enter the drain: the cursor
        // slot was already consumed by the failed delivery.
        const bool failed = failed_.load(std::memory_order_acquire);
        if (!failed && bytes > 0 && !admit(chunk, bytes)) {
            obs::instant(obs::Phase::budget_park, chunk_base_ + chunk);
            // Spill with no delivery state held: SpillFile::append only
            // serializes its offset reservation, so concurrent spillers
            // overlap their writes and non-spilling producers are untouched.
            auto parked = std::make_unique<spill::SpillSink>(*spill_);
            {
                obs::Span park_span(obs::Phase::spill_park, chunk_base_ + chunk);
                buf.for_each_segment([&](EdgeSpan seg) {
                    parked->deliver(seg.data, seg.count);
                });
                parked->finish();
            }
            buf.release(); // chain back to the freelist before publishing
            slot.spilled = std::move(parked);
            spilled_chunks_.fetch_add(1, std::memory_order_relaxed);
            spilled_bytes_.fetch_add(bytes, std::memory_order_relaxed);
            slot.state.store(Slot::kSpilled, std::memory_order_release);
        } else {
            slot.bytes = bytes;
            slot.buf   = std::move(buf);
            slot.state.store(Slot::kBuffered, std::memory_order_release);
        }
        if (!failed) maybe_drain();
    }

    u64 delivered_chunks() const {
        return cursor_.load(std::memory_order_acquire);
    }
    u64 peak_buffered_bytes() const {
        return peak_.load(std::memory_order_acquire);
    }
    u64 spilled_chunks() const {
        return spilled_chunks_.load(std::memory_order_relaxed);
    }
    u64 spilled_bytes() const {
        return spilled_bytes_.load(std::memory_order_relaxed);
    }

private:
    /// One chunk's ready-queue slot. The producing worker fills the payload
    /// fields and publishes with the `state` release store; only the
    /// drainer reads them afterwards. Cache-line alignment keeps
    /// concurrently-publishing neighbours off one line.
    struct alignas(64) Slot {
        static constexpr u8 kPending  = 0;
        static constexpr u8 kBuffered = 1;
        static constexpr u8 kSpilled  = 2;
        std::atomic<u8> state{kPending};
        u64 bytes = 0;                             ///< resident edge bytes
        ChunkBuffer buf;                           ///< buffered payload
        std::unique_ptr<spill::SpillSink> spilled; ///< spilled payload
    };

    /// Budget admission: CAS-reserves `bytes` on the resident count, so the
    /// count never transiently includes a chunk that then spills — the peak
    /// statistic is exact, not a racy over-read. Returns false when the
    /// chunk must spill. The cursor chunk (while no drainer is active) is
    /// exempt: it is about to leave through the sink anyway and is never
    /// worth a disk round-trip — the "+ one chunk" allowance of the bound.
    bool admit(u64 chunk, u64 bytes) {
        const bool at_cursor =
            budget_ != 0 && chunk == cursor_.load(std::memory_order_acquire) &&
            !draining_.load(std::memory_order_acquire);
        u64 cur = resident_.load(std::memory_order_relaxed);
        for (;;) {
            if (budget_ != 0 && cur + bytes > budget_ && !at_cursor) {
                return false;
            }
            if (resident_.compare_exchange_weak(cur, cur + bytes,
                                                std::memory_order_acq_rel,
                                                std::memory_order_relaxed)) {
                update_peak(cur + bytes);
                return true;
            }
        }
    }

    /// Drainer election: claim the flag when the cursor slot is ready. The
    /// post-drain re-check closes the hand-off race — a producer that
    /// published while we still held the flag saw its CAS fail and walked
    /// away; its slot must not be stranded.
    void maybe_drain() {
        for (;;) {
            if (failed_.load(std::memory_order_acquire)) return;
            const u64 cur = cursor_.load(std::memory_order_acquire);
            if (cur >= slots_.size() ||
                slots_[cur].state.load(std::memory_order_acquire) ==
                    Slot::kPending) {
                return;
            }
            bool expected = false;
            if (!draining_.compare_exchange_strong(expected, true,
                                                   std::memory_order_acq_rel)) {
                return; // the active drainer re-checks after clearing
            }
            drain_loop();
            draining_.store(false, std::memory_order_release);
        }
    }

    /// Streams the contiguous ready prefix into the sink. Runs with the
    /// drainer flag held; no lock exists. Sink delivery, spill replay and
    /// slab recycling all happen right here, fully concurrent with
    /// producers filling and publishing later slots.
    void drain_loop() {
        u64 cur = cursor_.load(std::memory_order_relaxed); // sole writer
        try {
            while (cur < slots_.size()) {
                Slot& slot  = slots_[cur];
                const u8 st = slot.state.load(std::memory_order_acquire);
                if (st == Slot::kPending) break;
                if (st == Slot::kBuffered) {
                    ChunkBuffer buf = std::move(slot.buf);
                    const u64 bytes = slot.bytes;
                    {
                        obs::Span span(obs::Phase::deliver, chunk_base_ + cur);
                        buf.for_each_segment([&](EdgeSpan seg) {
                            sink_.deliver(seg.data, seg.count);
                        });
                    }
                    // Recycle the chain: producers pull these very slabs
                    // off the arena freelist for their next chunk — the
                    // zero-steady-state-allocation cycle (DESIGN.md §14).
                    buf.release();
                    // Subtract *before* advancing the cursor: the next
                    // chunk's cursor exemption must never overlap this
                    // chunk's resident bytes, or the peak bound would read
                    // budget + two chunks.
                    resident_.fetch_sub(bytes, std::memory_order_acq_rel);
                } else {
                    auto parked = std::move(slot.spilled);
                    obs::Span span(obs::Phase::spill_replay, chunk_base_ + cur);
                    // Replay through a held scratch slab: the replay path
                    // allocates nothing, and the bounded-memory footprint
                    // stays budget + one chunk + one slab.
                    if (scratch_ == nullptr) scratch_ = arena_.acquire();
                    parked->replay(sink_, scratch_->edges(), scratch_->capacity);
                }
                ++cur;
                cursor_.store(cur, std::memory_order_release);
            }
        } catch (...) {
            // A failing sink (e.g. ENOSPC in BinaryFileSink) must not leave
            // a phantom drainer behind: producers would park forever and
            // the error would surface as a hang instead of the thrown
            // exception. Order matters — `failed_` must be visible before
            // the flag clears, or a producer could slip in and re-drain the
            // cursor slot whose payload this attempt already consumed.
            failed_.store(true, std::memory_order_release);
            draining_.store(false, std::memory_order_release);
            throw;
        }
    }

    void update_peak(u64 value) {
        u64 cur = peak_.load(std::memory_order_relaxed);
        while (cur < value &&
               !peak_.compare_exchange_weak(cur, value,
                                            std::memory_order_acq_rel,
                                            std::memory_order_relaxed)) {
        }
    }

    std::vector<Slot> slots_;
    const u64 chunk_base_; ///< absolute id of slot 0 (trace span labels)
    std::atomic<u64> cursor_{0};       ///< next chunk owed to the sink
    std::atomic<bool> draining_{false}; ///< a designated drainer is active
    std::atomic<bool> failed_{false};   ///< a delivery threw; stop draining
    const u64 budget_; ///< resident-byte budget; 0 = unbounded
    std::atomic<u64> resident_{0}; ///< parked + in-flight-to-sink bytes
    std::atomic<u64> peak_{0};
    std::atomic<u64> spilled_chunks_{0};
    std::atomic<u64> spilled_bytes_{0};
    std::unique_ptr<spill::SpillFile> spill_;
    SlabArena& arena_;
    EdgeSink& sink_;
    Slab* scratch_ = nullptr; ///< drainer-owned spill-replay scratch slab
};

} // namespace

ChunkRunStats run_chunked(const ChunkOptions& opt, const ChunkFn& fn, EdgeSink& sink) {
    assert(opt.num_pes >= 1 && opt.chunks_per_pe >= 1);
    const u64 num_chunks =
        opt.total_chunks != 0 ? opt.total_chunks : opt.num_pes * opt.chunks_per_pe;
    // Subrange selection: tasks cover [begin, end) of the canonical chunks;
    // fn still sees the full decomposition (chunk id, num_chunks), so the
    // emitted stream is the exact slice of the whole-graph stream.
    const u64 begin = opt.chunk_begin;
    const u64 end   = opt.chunk_end != 0 ? opt.chunk_end : num_chunks;
    if (begin > end || end > num_chunks) {
        throw std::invalid_argument(
            "pe::run_chunked: chunk range [" + std::to_string(begin) + ", " +
            std::to_string(end) + ") outside [0, " + std::to_string(num_chunks) + ")");
    }
    const u64 span = end - begin;
    u64 workers    = opt.threads;
    if (workers == 0) {
        workers = std::min<u64>(opt.num_pes, std::thread::hardware_concurrency());
    }
    workers = std::max<u64>(workers, 1);
    ThreadPool& pool = opt.pool != nullptr ? *opt.pool : ThreadPool::global();

    const u64 granularity = std::max<u64>(opt.deal_granularity, 1);
    // Group boundaries live at *absolute* chunk-id multiples of the group
    // size (that is where the geometric models' Morton blocks start); a
    // subrange run whose `begin` is mid-group (a distributed rank with
    // chunk_begin % granularity != 0) must shift the task-space alignment
    // accordingly or every "group" would straddle two real blocks.
    const u64 grain_phase =
        granularity > 1 ? (granularity - begin % granularity) % granularity : 0;

    ChunkRunStats stats;
    stats.num_chunks = span;
    stats.workers    = std::min<u64>({workers, std::max<u64>(span, 1), pool.num_threads()});

    obs::Registry& reg        = obs::Registry::global();
    obs::Histogram& edge_hist = reg.histogram("pe.chunk_edges");
    // This run's chunk-arena deltas (multi-worker ordered runs only; an
    // external arena carries warm slabs and counters across runs).
    u64 slab_reuses = 0, slabs_reserved = 0, slab_chains = 0;

    const u64 start = obs::monotonic_now();
    if (!sink.ordered()) {
        // Order-insensitive sink: workers stream straight through private
        // stack-buffered facades; memory stays O(buffer) per worker and no
        // facade ever touches the heap.
        pool.parallel_for(span, workers, [&](u64 task) {
            std::array<Edge, EdgeSink::kDefaultBufferEdges> stack_buf;
            ForwardingSink forward(sink, stack_buf.data(), stack_buf.size());
            {
                obs::Span gen(obs::Phase::generate, begin + task);
                fn(begin + task, num_chunks, forward);
                forward.flush();
            }
            edge_hist.observe(forward.edges_forwarded());
        }, granularity, grain_phase);
    } else if (stats.workers <= 1) {
        // Direct streaming (DESIGN.md §9): a single participant visits the
        // chunks in canonical order, so ordered delivery is automatic and
        // no chunk ever materializes — the generator emits straight into
        // the target sink's own inline buffer (no forwarding facade, no
        // chunk buffers, zero extra copies) and the memory bound holds
        // trivially. The closing flush guarantees every emitted edge has
        // reached consume() by return, whether or not `fn` flushed.
        for (u64 task = 0; task < span; ++task) {
            obs::Span gen(obs::Phase::generate, begin + task);
            fn(begin + task, num_chunks, sink);
        }
        sink.flush();
    } else {
        // Ordered sink, parallel run: chunks generate *directly into* arena
        // slab chains (ArenaSink aliases the tail slab's free space, so
        // every emitted edge lands at its final resting place) and a single
        // designated drainer hands them over in canonical chunk order — the
        // output stream is bit-identical to a sequential run, for any
        // worker count and any completion order. Chunks completing more than
        // `max_buffered_bytes` ahead of the cursor park on disk, so peak
        // memory is budget + one chunk instead of O(completion skew).
        // Recycling stays on in bounded mode too: released slabs decommit
        // their payload pages (arena.hpp), so retained capacity is no
        // longer invisible resident memory and the strict bound survives.
        SlabArena local_arena(/*slab_bytes=*/0,
                              /*decommit_on_release=*/opt.max_buffered_bytes != 0);
        SlabArena& arena = opt.arena != nullptr ? *opt.arena : local_arena;
        const u64 base_hits     = arena.freelist_hits();
        const u64 base_reserved = arena.slabs_reserved();
        const u64 base_chains   = arena.chains();
        OrderedDelivery delivery(span, begin, opt.max_buffered_bytes,
                                 opt.spill_path, sink, arena);
        pool.parallel_for(span, workers, [&](u64 task) {
            ChunkBuffer buf(&arena); // the first slab binds on first write
            {
                ArenaSink local(buf);
                obs::Span gen(obs::Phase::generate, begin + task);
                fn(begin + task, num_chunks, local);
                local.flush();
            }
            edge_hist.observe(buf.size());
            delivery.complete(task, std::move(buf));
        }, granularity, grain_phase);
        assert(delivery.delivered_chunks() == span);
        stats.peak_buffered_bytes = delivery.peak_buffered_bytes();
        stats.spilled_chunks      = delivery.spilled_chunks();
        stats.spilled_bytes       = delivery.spilled_bytes();
        slab_reuses               = arena.freelist_hits() - base_hits;
        slabs_reserved            = arena.slabs_reserved() - base_reserved;
        slab_chains               = arena.chains() - base_chains;
    }
    stats.seconds = static_cast<double>(obs::monotonic_now() - start) * 1e-9;

    // Mirror the per-run struct into the registry: `ChunkRunStats` stays the
    // thin per-run view, the named instruments are what snapshots, merges,
    // and the `-metrics` report consume. The arena counters exist only here.
    reg.counter("pe.runs").add(1);
    reg.counter("pe.chunks").add(span);
    reg.counter("pe.spilled_chunks").add(stats.spilled_chunks);
    reg.counter("pe.spilled_bytes").add(stats.spilled_bytes);
    reg.counter("pe.peak_buffered_bytes", obs::MergeKind::max)
        .record_max(stats.peak_buffered_bytes);
    reg.counter("pe.arena.freelist_hits").add(slab_reuses);
    reg.counter("pe.arena.slabs_reserved").add(slabs_reserved);
    reg.counter("pe.arena.chains").add(slab_chains);
    return stats;
}

} // namespace kagen::pe
