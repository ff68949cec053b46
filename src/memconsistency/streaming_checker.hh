/**
 * @file
 * Streaming (incremental) consistency checking.
 *
 * The post-hoc Checker re-derives fr and rebuilds both constraint
 * graphs from scratch for every finalized witness, and a violation
 * injected early in a test-run is only caught after the whole run has
 * been simulated and recorded. The StreamingChecker instead consumes
 * events *as the simulation commits them* (via the ExecWitness event
 * sink) and maintains both constraint graphs online:
 *
 *  - the sc-per-location graph (po-loc | rf | co | fr) over per
 *    (thread, address) chains,
 *  - the ghb graph (ppo | fences | rf[e] | co | fr) via per-order
 *    incremental edge strategies closure-equivalent to the batch
 *    ProfileModel engine, for any validated ModelProfile
 *    (SC/TSO/PSO/RMO/RC),
 *
 * with Pearce-Kelly dynamic topological ordering (incremental.hh)
 * detecting a cycle at the exact edge insertion -- and therefore the
 * exact event -- that closes it. rf is resolved online from write
 * values (store-forwarded reads can arrive before their producing
 * write: such reads pend on the value and resolve when the write
 * serializes), co from overwritten values, and fr edges are emitted as
 * soon as an rf source gains a co-successor. RMW atomicity and co
 * forks are likewise checked at resolution time.
 *
 * Detection semantics: violationDetected() flips at the first event
 * whose constraints close a cycle (or violate atomicity /
 * well-formedness); eventsUntilDetection() reports how many recorded
 * events the checker had consumed at that point. In throw-on-violation
 * mode the sink throws StreamingViolation out of the recording call so
 * the simulation stops at the violating access instead of running the
 * iteration to quiescence.
 *
 * Verdict parity: Checker::checkStreamed() composes this object with
 * the post-hoc pipeline -- the witness is still finalized, witness
 * anomalies and the model-salted verdict cache behave exactly as in
 * Checker::check(), a clean stream skips only the cycle analysis, and
 * a dirty stream falls back to the full analysis so diagnostics stay
 * byte-identical to post-hoc checking. earlyStopResult() renders the
 * streaming-native verdict for stopped-early (un-finalizable) witness
 * prefixes.
 *
 * All state is capacity-preserving: begin() costs O(touched state)
 * plus a sweep of the value table's slots, and steady-state iterations
 * allocate nothing.
 *
 * Bounded-window mode (setWindow(W), W > 0) additionally keeps memory
 * O(live set) instead of O(trace): once an event is older than the
 * last W recorded events AND fully resolved -- a read has its rf bound,
 * its fr emitted, and its RMW pair checked; a write has its co
 * predecessor retired, a co successor, no reads still awaiting fr, and
 * its (and its successor's) RMW pair checked -- it is *retired*: its
 * remaining obligations fold into the per-thread/per-location frontier
 * lists, its value mapping is erased, and its node is spliced out of
 * both graphs (IncrementalGraph::retireNode bypass edges preserve
 * reachability among live nodes exactly) and recycled. Periodic
 * compaction remaps the live nodes onto a dense id prefix. Violations
 * whose closing edge lands within the window are detected exactly as
 * in unbounded mode; orderings that would have run through retired
 * events are dropped and *counted* (truncatedStragglers /
 * truncatedStaleReads), never silently ignored: a stream that loses
 * constraints this way reports window truncation instead of a clean
 * verdict. Windowed mode assumes write values are unique within a
 * window span (the McVerSi generator guarantees this); a value reused
 * W events after its first writer retired re-binds to the newer
 * writer.
 */

#ifndef MCVERSI_MEMCONSISTENCY_STREAMING_CHECKER_HH
#define MCVERSI_MEMCONSISTENCY_STREAMING_CHECKER_HH

#include <cstdint>
#include <exception>
#include <vector>

#include "common/addr_table.hh"
#include "memconsistency/checker.hh"
#include "memconsistency/execwitness.hh"
#include "memconsistency/incremental.hh"
#include "memconsistency/models/profile.hh"

namespace mcversi::mc {

/**
 * Thrown by the event sink (in throw-on-violation mode) to stop the
 * simulation at the violating event. Deliberately NOT derived from
 * std::runtime_error: the workload's livelock watchdog catches
 * runtime_error and must not swallow a detected violation.
 */
class StreamingViolation : public std::exception
{
  public:
    const char *
    what() const noexcept override
    {
        return "streaming checker: consistency violation detected";
    }
};

/** Online checker maintaining the constraint graphs incrementally. */
class StreamingChecker final : public WitnessEventSink
{
  public:
    /** @p profile is validated (throws std::invalid_argument). */
    explicit StreamingChecker(ModelProfile profile);

    /** Start a new stream (new witness); keeps all capacity. */
    void begin();

    /**
     * Bound the live set to roughly the last @p events recorded events
     * (0 = unbounded, the default: byte-identical to pre-window
     * behavior). Takes effect at the next begin(). See the file
     * comment for the retirement rules and truncation semantics.
     */
    void setWindow(std::size_t events) { window_ = events; }

    std::size_t window() const { return window_; }

    /** Peak live (un-retired) node count this stream. */
    std::size_t liveNodeHighWater() const { return liveHighWater_; }

    /**
     * Events whose program-order arrival was so late that orderings
     * through already-retired same-thread events were dropped.
     */
    std::uint64_t truncatedStragglers() const { return truncatedStragglers_; }

    /**
     * Reads (or overwrites) of a value whose producing write -- or of
     * the init state after its node -- retired: the access stays
     * unresolved, so the stream can never report complete.
     */
    std::uint64_t truncatedStaleReads() const { return truncatedStaleReads_; }

    /** True when the window dropped at least one ordering constraint. */
    bool
    windowTruncated() const
    {
        return truncatedStragglers_ + truncatedStaleReads_ > 0;
    }

    /**
     * Remap the live nodes of both graphs (and every structure that
     * names a node) onto a dense id prefix. Runs automatically every
     * few windows in bounded mode; public so tests can force it.
     * No-op after a detected violation.
     */
    void compactNow();

    /**
     * Throw StreamingViolation out of onRecord() when a violation is
     * detected (simulation early stop). Off by default: replay/bench
     * callers poll violationDetected() instead.
     */
    void setThrowOnViolation(bool enable) { throwOnViolation_ = enable; }

    /** WitnessEventSink: consume one recorded event. */
    void onRecord(const ExecWitness &ew, EventId id,
                  WriteVal overwritten) override;

    /**
     * Feed an already-recorded witness through the sink in record
     * order, init events excluded (tests and benches). Stops consuming
     * at the first detected violation. Calls begin() first.
     */
    void replayRecorded(const ExecWitness &ew);

    bool
    violationDetected() const
    {
        return violationKind_ != CheckResult::Kind::Ok;
    }

    CheckResult::Kind violationKind() const { return violationKind_; }

    /** Recorded events consumed so far (stops counting at detection). */
    std::uint64_t eventsConsumed() const { return eventsConsumed_; }

    /**
     * True when every consumed read value and overwritten value has
     * resolved to a producing write (or init). A clean *and* complete
     * stream (every recorded event consumed) proves the witness would
     * be anomaly-free and pass the batch analysis, so
     * Checker::checkStreamed() settles a clean, complete windowed
     * stream without replaying it.
     */
    bool streamComplete() const { return pending_ == 0; }

    /**
     * Recorded events the checker had consumed when the violation was
     * detected (detection latency in events); 0 if none detected.
     */
    std::uint64_t eventsUntilDetection() const { return detectionEvents_; }

    /**
     * Render the detected violation of a stopped-early stream. Unlike
     * post-hoc diagnostics this works on an un-finalized witness (a
     * stopped prefix cannot be finalized: store-forwarded reads may
     * still await their producing writes). Requires violationDetected().
     */
    CheckResult earlyStopResult(const ExecWitness &ew) const;

    const ModelProfile &profile() const { return profile_; }

  private:
    using Node = IncrementalGraph::Node;
    static constexpr Node kNoNode = -1;
    /**
     * A node reference whose target retired (bounded-window mode).
     * Distinct from kNoNode so "was bound, now gone" never reads as
     * "never bound".
     */
    static constexpr Node kRetiredNode = -2;

    // NodeMeta::flags bits.
    static constexpr std::uint8_t kAgedOut = 1 << 0;
    static constexpr std::uint8_t kRetired = 1 << 1;
    /** fr edge emitted (or will never be needed): reads only. */
    static constexpr std::uint8_t kFrDone = 1 << 2;
    /** RMW atomicity check ran (set at creation for non-RMW nodes). */
    static constexpr std::uint8_t kPairDone = 1 << 3;
    /** This write's co predecessor has itself retired. */
    static constexpr std::uint8_t kCoPredRetired = 1 << 4;

    /** Internal control-flow sentinel: a violation was recorded. */
    struct Detected
    {
    };

    /** Per-thread po element: total order (poi, slot, node). */
    struct Elem
    {
        std::int32_t poi;
        /** 0 pre-fence, 1 read part, 2 write part, 3 post-fence. */
        std::uint8_t slot;
        Node node;

        friend auto
        operator<=>(const Elem &a, const Elem &b)
        {
            if (const auto c = a.poi <=> b.poi; c != 0)
                return c;
            if (const auto c = a.slot <=> b.slot; c != 0)
                return c;
            return a.node <=> b.node;
        }
    };

    /**
     * Sorted Elem sequence with O(1) amortized erase-at-front: a
     * head-offset wrapper over a vector that compacts lazily.
     * Retirement removes elements almost always at the front (events
     * retire in near program order), and a plain vector::erase there
     * would shift the whole live window on every retirement.
     */
    class ElemList
    {
      public:
        bool empty() const { return head_ == v_.size(); }
        std::size_t size() const { return v_.size() - head_; }
        const Elem &operator[](std::size_t i) const { return v_[head_ + i]; }
        const Elem &back() const { return v_.back(); }
        const Elem *begin() const { return v_.data() + head_; }
        const Elem *end() const { return v_.data() + v_.size(); }
        /** Mutable iteration (compactNow() node-id remapping). */
        Elem *begin() { return v_.data() + head_; }
        Elem *end() { return v_.data() + v_.size(); }
        void push_back(const Elem &el) { v_.push_back(el); }
        void
        insertAt(std::size_t pos, const Elem &el)
        {
            v_.insert(v_.begin() + static_cast<std::ptrdiff_t>(head_ + pos),
                      el);
        }
        void
        eraseAt(std::size_t pos)
        {
            if (pos == 0) {
                ++head_;
                if (head_ > 64 && head_ >= v_.size() - head_) {
                    v_.erase(v_.begin(),
                             v_.begin() + static_cast<std::ptrdiff_t>(head_));
                    head_ = 0;
                }
            } else {
                v_.erase(v_.begin() +
                         static_cast<std::ptrdiff_t>(head_ + pos));
            }
        }
        void
        clear()
        {
            v_.clear();
            head_ = 0;
        }

      private:
        std::vector<Elem> v_;
        std::size_t head_ = 0;
    };

    struct ThreadState
    {
        ElemList reads;
        ElemList writes;
        ElemList fences;
        /** Acquire (RMW read) / release (RMW write) elems (acqrel). */
        ElemList acqs;
        ElemList rels;
        /** Outstanding RMW read halves awaiting their write (poi). */
        std::vector<std::pair<std::int32_t, Node>> pendingRmw;
        /** Per-address po-loc chain slot (witness AddrId -> chains_). */
        std::vector<std::int32_t> chainAt;
        /** Highest poi retired from this thread (window truncation). */
        std::int32_t maxRetiredPoi = -1;
        /** Registered in touchedPids_ this stream (see threadOf()). */
        bool touched = false;

        void clear();
    };

    struct ValueInfo
    {
        /** First write producing this value, or kNoNode. */
        Node writer = kNoNode;
        /** Intrusive list heads of nodes pending on the writer. */
        Node pendingReadsHead = kNoNode;
        Node pendingCoHead = kNoNode;
    };

    /** Per-node metadata (one record per node slot, see newNode()). */
    struct NodeMeta
    {
        EventId event;
        Pid pid;
        /** Address of an init node; kNoAddr for events and fences. */
        Addr aux;
        /** Written value (writes; kInitVal otherwise): retirement
         *  erases it from the value map without the witness event,
         *  which a windowed witness may have evicted. */
        WriteVal value;
        Node rfSrc;
        Node coPred;
        Node coSucc;
        /** Reads rf-bound to this write awaiting a co-successor (fr). */
        Node readersHead;
        Node readerNext;
        Node pendingReadNext;
        Node pendingCoNext;
        Node pairRead;
        Node pairWrite;
        /** Program-order index (Elem reconstruction at retirement). */
        std::int32_t poi;
        /** Witness AddrId (po-loc chain lookup at retirement). */
        AddrId aid;
        /** Elem slot: 0 pre-fence, 1 read, 2 write, 3 post-fence. */
        std::uint8_t slot;
        std::uint8_t flags;
    };

    // -- node space (shared by both graphs) ---------------------------
    /**
     * Add a node to both graphs and fill its NodeMeta slot in place.
     * Init nodes (pid kInitPid) only ever gain out-edges, so they join
     * at the front of the order as sources and never force a reorder.
     */
    Node newNode(EventId ev, Pid pid, Addr aux, WriteVal value,
                 std::int32_t poi, std::uint8_t slot, AddrId aid,
                 std::uint8_t flags);
    Node initNodeOf(AddrId aid, Addr addr);

    // -- bounded-window retirement ------------------------------------
    bool retirable(const NodeMeta &m) const;
    void retireNow(Node n);
    /** Queue @p n for a retirement attempt at the end of the event. */
    void
    noteCandidate(Node n)
    {
        if (window_ != 0 && n >= 0)
            retireScratch_.push_back(n);
    }
    void drainRetirements();
    void ageWindow();
    void eraseElem(ElemList &v, const Elem &el);

    // -- event ingestion ----------------------------------------------
    void ingest(const ExecWitness &ew, EventId id, WriteVal overwritten);
    void insertPoLoc(ThreadState &t, AddrId aid, Elem el);
    void insertRead(ThreadState &t, Elem el, bool rmw);
    void insertWrite(ThreadState &t, Elem el, bool rmw);
    void insertFence(ThreadState &t, Elem el);
    ThreadState &threadOf(Pid pid);

    // -- online conflict orders ---------------------------------------
    /**
     * @p v's entry, inserted empty if absent. No reference may be held
     * across another insert into or erase from the value table.
     */
    ValueInfo &
    valueInfo(WriteVal v)
    {
        return v == kNoAddr ? topValue_ : values_[v];
    }
    void resolveRead(Node r, WriteVal v, AddrId aid, Addr addr);
    void registerWrite(Node w, WriteVal v, WriteVal overwritten,
                       AddrId aid, Addr addr);
    void bindRf(Node r, Node w);
    void bindCo(Node prev, Node w);
    void checkPairAtomicity(Node r, Node w);

    // -- edge insertion / violation recording -------------------------
    void edgeU(Node from, Node to);
    void edgeG(Node from, Node to);
    [[noreturn]] void fail(CheckResult::Kind kind);
    std::string nodeString(const ExecWitness &ew, Node n) const;

    ModelProfile profile_;
    // Edge-strategy flags (mirrors the batch engine's derivation).
    bool chainRR_ = false;
    bool chainWW_ = false;
    bool orderRW_ = false;
    bool orderWR_ = false;
    bool full_ = false;
    bool acqrel_ = false;
    bool pairEdge_ = false;
    bool rfiGlobal_ = false;

    IncrementalGraph uniproc_;
    IncrementalGraph ghb_;

    /**
     * Node metadata, indexed by node slot and filled by newNode(). It
     * only grows: begin() keeps the slots, and newNode() overwrites
     * every field of the slot it hands out.
     */
    std::vector<NodeMeta> nodes_;

    // Value resolution. Addresses need no map of their own: the
    // witness already interns them to dense AddrIds at record time.
    /** Written value -> its writer and pending accesses. */
    AddrTable<ValueInfo> values_;
    /** Entry for the value kNoAddr, the table's empty key. */
    ValueInfo topValue_;
    /** Init node per witness AddrId (kRetiredNode once retired). */
    std::vector<Node> initNode_;

    // Per-thread program-order state.
    std::vector<ThreadState> threads_;
    std::vector<Pid> touchedPids_;

    /** Pool of per (thread, address) po-loc chains (see chainAt). */
    std::vector<ElemList> chains_;
    std::size_t chainCount_ = 0;

    // Bounded-window state (all idle when window_ == 0).
    std::size_t window_ = 0;
    /** Un-aged nodes in creation order (head-offset ring). */
    std::vector<Node> ageFifo_;
    std::size_t ageHead_ = 0;
    /** Retirement candidates collected while ingesting one event. */
    std::vector<Node> retireScratch_;
    /** Old-id -> new-id scratch for compactNow(). */
    std::vector<Node> remapScratch_;
    std::size_t liveHighWater_ = 0;
    std::uint64_t truncatedStragglers_ = 0;
    std::uint64_t truncatedStaleReads_ = 0;
    /** Events since the last automatic compaction. */
    std::uint64_t sinceCompact_ = 0;

    // Stream / violation state.
    bool throwOnViolation_ = false;
    std::uint64_t eventsConsumed_ = 0;
    std::uint64_t detectionEvents_ = 0;
    /** Unresolved pending reads + co predecessors (streamComplete()). */
    std::uint32_t pending_ = 0;
    CheckResult::Kind violationKind_ = CheckResult::Kind::Ok;
    /** Nodes carrying the non-cycle diagnostics (atomicity / fork). */
    Node violA_ = kNoNode;
    Node violB_ = kNoNode;
    Node violC_ = kNoNode;
};

} // namespace mcversi::mc

#endif // MCVERSI_MEMCONSISTENCY_STREAMING_CHECKER_HH
