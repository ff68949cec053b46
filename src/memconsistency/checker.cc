#include "memconsistency/checker.hh"

#include <cassert>
#include <sstream>
#include <stdexcept>

#include "memconsistency/streaming_checker.hh"

namespace mcversi::mc {

const char *
checkModeName(CheckMode mode)
{
    switch (mode) {
      case CheckMode::Posthoc: return "posthoc";
      case CheckMode::Streaming: return "streaming";
    }
    return "?";
}

CheckMode
parseCheckMode(const std::string &name)
{
    if (name == "posthoc")
        return CheckMode::Posthoc;
    if (name == "streaming")
        return CheckMode::Streaming;
    throw std::invalid_argument("unknown check mode: '" + name +
                                "' (expected posthoc|streaming)");
}

const char *
CheckResult::kindName(Kind k)
{
    switch (k) {
      case Kind::Ok: return "ok";
      case Kind::WitnessAnomaly: return "witness-anomaly";
      case Kind::UniprocViolation: return "sc-per-location";
      case Kind::AtomicityViolation: return "rmw-atomicity";
      case Kind::GhbViolation: return "ghb";
    }
    return "?";
}

CheckResult
Checker::cycleResult(CheckResult::Kind kind, const ExecWitness &ew,
                     const std::vector<CycleGraph::Node> &cyc,
                     const std::string &constraint)
{
    CheckResult res;
    res.kind = kind;
    std::ostringstream os;
    os << constraint << " cycle:";
    const auto num_events = static_cast<CycleGraph::Node>(ew.numEvents());
    for (const auto node : cyc) {
        if (node < num_events) {
            res.cycle.push_back(node);
            os << "\n  " << ew.event(node).toString();
        } else {
            os << "\n  <fence>";
        }
    }
    res.message = os.str();
    return res;
}

void
Checker::enableVerdictCache(VerdictCache::Config config)
{
    cache_ = std::make_unique<VerdictCache>(config);
}

CheckResult
Checker::check(ExecWitness &ew) const
{
    ew.finalize();
    if (ew.anomaly() != WitnessAnomaly::None) {
        CheckResult res;
        res.kind = CheckResult::Kind::WitnessAnomaly;
        res.message = ew.anomalyInfo();
        return res;
    }

    // Collective checking: a cached Ok verdict for this witness's
    // equivalence class settles the check immediately (Ok carries no
    // diagnostics, so returning a fresh Ok is byte-identical).
    // Violation hits fall through to the full analysis, which rebuilds
    // the message/cycle in this witness's event ids.
    WitnessSignature sig;
    if (cache_ != nullptr) {
        sig = signatureScratch_.compute(ew);
        std::uint8_t verdict = 0;
        if (cache_->lookup(sig, verdict) &&
            static_cast<CheckResult::Kind>(verdict) ==
                CheckResult::Kind::Ok) {
            return {};
        }
    }

    const CheckResult res = fullCheck(ew);
    if (cache_ != nullptr)
        cache_->insert(sig, static_cast<std::uint8_t>(res.kind));
    return res;
}

CheckResult
Checker::checkStreamed(ExecWitness &ew, const StreamingChecker &sc) const
{
    // Windowed (ring-buffer) witness: the event log cannot finalize,
    // so the post-hoc pipeline only ever runs over the retained tail.
    // The verdict cache is skipped (its signature needs resolved
    // conflict orders over the whole stream).
    if (ew.window() != 0) {
        // Clean, complete, and truncation-free: the incremental graphs
        // proved acyclicity over the whole stream, nothing more to do.
        if (!sc.violationDetected() && sc.streamComplete() &&
            !sc.windowTruncated() &&
            sc.eventsConsumed() == ew.numEvents()) {
            return {};
        }
        if (ew.droppedEvents() == 0) {
            // The whole stream is still in the ring (dirty, or clean
            // but incomplete, e.g. a read of a never-written value):
            // replay it into a full-mode scratch witness and run the
            // exact post-hoc pipeline -- ids, message, and cycle come
            // out byte-identical to unbounded checking.
            ew.replayRetainedInto(windowScratch_);
            windowScratch_.finalize();
            if (windowScratch_.anomaly() != WitnessAnomaly::None) {
                CheckResult res;
                res.kind = CheckResult::Kind::WitnessAnomaly;
                res.message = windowScratch_.anomalyInfo();
                return res;
            }
            return fullCheck(windowScratch_);
        }
        if (!sc.violationDetected()) {
            // Constraints were dropped at retirement and the evicted
            // prefix is gone: the live window closed no cycle, but the
            // verdict does not cover the whole stream -- say so
            // instead of reporting an unqualified pass.
            CheckResult res;
            res.message =
                "clean within retained window (truncated: " +
                std::to_string(ew.droppedEvents()) +
                " events evicted, " +
                std::to_string(sc.truncatedStragglers()) +
                " straggler orderings dropped, " +
                std::to_string(sc.truncatedStaleReads()) +
                " stale accesses unresolved)";
            return res;
        }
        // Violation past the ring's reach: render the streaming-native
        // verdict over what remains, flagged with the truncation note.
        return sc.earlyStopResult(ew);
    }

    ew.finalize();
    if (ew.anomaly() != WitnessAnomaly::None) {
        CheckResult res;
        res.kind = CheckResult::Kind::WitnessAnomaly;
        res.message = ew.anomalyInfo();
        return res;
    }

    WitnessSignature sig;
    if (cache_ != nullptr) {
        sig = signatureScratch_.compute(ew);
        std::uint8_t verdict = 0;
        if (cache_->lookup(sig, verdict) &&
            static_cast<CheckResult::Kind>(verdict) ==
                CheckResult::Kind::Ok) {
            return {};
        }
    }

    CheckResult res;
    if (sc.violationDetected()) {
        // Re-derive the verdict post-hoc so the diagnostics (message,
        // cycle event ids) are byte-identical to check(). Violations
        // are the rare path, so this costs nothing in the steady state.
        res = fullCheck(ew);
    } else {
#ifndef NDEBUG
        // A clean stream must mean a clean witness; cross-check the
        // incremental edge strategies against the batch analysis.
        assert(fullCheck(ew).ok() &&
               "streaming checker missed a violation");
#endif
    }
    if (cache_ != nullptr)
        cache_->insert(sig, static_cast<std::uint8_t>(res.kind));
    return res;
}

CheckResult
Checker::fullCheck(const ExecWitness &ew) const
{
    // Derive the immediate fr edges exactly once; both the uniproc and
    // the ghb phase stream them from this buffer.
    frScratch_.clear();
    const auto num_events = static_cast<EventId>(ew.numEvents());
    for (EventId r = 0; r < num_events; ++r) {
        if (!ew.event(r).isRead())
            continue;
        const EventId src = ew.rfSource(r);
        if (src == kNoEvent)
            continue;
        const EventId succ = ew.coSuccessor(src);
        if (succ != kNoEvent)
            frScratch_.emplace_back(r, succ);
    }

    if (auto res = checkUniproc(ew); !res.ok())
        return res;
    if (auto res = checkAtomicity(ew); !res.ok())
        return res;
    return checkGhb(ew);
}

void
Checker::addCoEdges(const ExecWitness &ew, CycleGraph &g)
{
    const auto num_events = static_cast<EventId>(ew.numEvents());
    for (EventId w = 0; w < num_events; ++w) {
        const EventId prev = ew.coPredecessor(w);
        if (prev != kNoEvent)
            g.addEdge(prev, w);
    }
}

void
Checker::addFrEdges(CycleGraph &g) const
{
    for (const auto &[r, succ] : frScratch_)
        g.addEdge(r, succ);
}

CheckResult
Checker::checkUniproc(const ExecWitness &ew) const
{
    CycleGraph &g = uniprocScratch_;
    g.reset(ew.numEvents());

    // po-loc: consecutive same-address events per thread (the per
    // (thread, address) sequence is totally ordered, so the chain
    // generates the full po-loc). Per-address state lives in a flat
    // array indexed by the witness's dense AddrIds.
    if (lastAtAddr_.size() < ew.numAddrs()) {
        lastAtAddr_.resize(ew.numAddrs());
        addrStamp_.resize(ew.numAddrs(), 0);
    }
    for (Pid pid : ew.threads()) {
        ++stamp_;
        for (EventId id : ew.threadEvents(pid)) {
            const AddrId aid = ew.addrId(id);
            if (aid < 0)
                continue; // Address-less event: no po-loc ordering.
            const auto a = static_cast<std::size_t>(aid);
            if (addrStamp_[a] == stamp_)
                g.addEdge(lastAtAddr_[a], id);
            else
                addrStamp_[a] = stamp_;
            lastAtAddr_[a] = id;
        }
    }

    // Communication edges: rf (all), immediate co, immediate fr.
    const auto num_events = static_cast<EventId>(ew.numEvents());
    for (EventId r = 0; r < num_events; ++r) {
        const EventId src = ew.rfSource(r);
        if (src != kNoEvent && ew.event(r).isRead())
            g.addEdge(src, r);
    }
    addCoEdges(ew, g);
    addFrEdges(g);

    if (auto cyc = g.findCycle()) {
        return cycleResult(CheckResult::Kind::UniprocViolation, ew, *cyc,
                           "sc-per-location");
    }
    return {};
}

CheckResult
Checker::checkAtomicity(const ExecWitness &ew) const
{
    for (const auto &[r, w] : ew.rmwPairs()) {
        const EventId src = ew.rfSource(r);
        if (src == kNoEvent)
            continue; // Anomaly already reported.
        if (ew.coPredecessor(w) != src) {
            CheckResult res;
            res.kind = CheckResult::Kind::AtomicityViolation;
            std::ostringstream os;
            os << "rmw atomicity violated: read " << ew.event(r).toString()
               << " sourced from " << ew.event(src).toString()
               << " but write " << ew.event(w).toString()
               << " does not immediately co-follow it";
            res.message = os.str();
            return res;
        }
    }
    return {};
}

CheckResult
Checker::checkGhb(const ExecWitness &ew) const
{
    CycleGraph &g = ghbScratch_;
    g.reset(ew.numEvents());

    for (Pid pid : ew.threads())
        model_.addProgramOrderEdges(ew, ew.threadEvents(pid), g);

    const bool include_rfi = model_.ghbIncludesRfi();
    const auto num_events = static_cast<EventId>(ew.numEvents());
    for (EventId r = 0; r < num_events; ++r) {
        const EventId src = ew.rfSource(r);
        if (src == kNoEvent || !ew.event(r).isRead())
            continue;
        const Event &w = ew.event(src);
        if (include_rfi || w.isInit() ||
            w.iiid.pid != ew.event(r).iiid.pid) {
            g.addEdge(src, r);
        }
    }
    addCoEdges(ew, g);
    addFrEdges(g);

    if (auto cyc = g.findCycle()) {
        return cycleResult(CheckResult::Kind::GhbViolation, ew, *cyc,
                           "ghb(" + model_.name() + ")");
    }
    return {};
}

} // namespace mcversi::mc
