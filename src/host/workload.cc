#include "host/workload.hh"

#include <chrono>
#include <stdexcept>

#include "memconsistency/models/engine.hh"
#include "sim/fault.hh"

namespace mcversi::host {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

sim::InstrKind
toInstrKind(gp::OpKind kind)
{
    switch (kind) {
      case gp::OpKind::Read: return sim::InstrKind::Load;
      case gp::OpKind::ReadAddrDp: return sim::InstrKind::LoadAddrDep;
      case gp::OpKind::Write: return sim::InstrKind::Store;
      case gp::OpKind::ReadModifyWrite: return sim::InstrKind::Rmw;
      case gp::OpKind::CacheFlush: return sim::InstrKind::Flush;
      case gp::OpKind::Delay: return sim::InstrKind::Delay;
    }
    return sim::InstrKind::Delay;
}

} // namespace

std::string
RunResult::describe() const
{
    if (protocolError)
        return "protocol error: " + protocolErrorInfo;
    if (violation) {
        return std::string("MCM violation (") +
               mc::CheckResult::kindName(checkResult.kind) +
               "): " + checkResult.message;
    }
    if (conditionHit)
        return "litmus forbidden outcome observed";
    return "ok";
}

Workload::Workload(sim::System &system, mc::Checker &checker,
                   TestMemLayout layout, Params params)
    : system_(system), checker_(checker), services_(system),
      params_(params)
{
    services_.markTestMemRange(layout);
    syncStreamingChecker();
}

void
Workload::setParams(Params p)
{
    params_ = p;
    syncStreamingChecker();
}

void
Workload::syncStreamingChecker()
{
    if (params_.checkMode != mc::CheckMode::Streaming) {
        streaming_.reset();
        return;
    }
    if (streaming_ != nullptr)
        return;
    const auto *model =
        dynamic_cast<const mc::ProfileModel *>(&checker_.arch());
    if (model == nullptr) {
        throw std::invalid_argument(
            "check-mode=streaming requires a profile-interpreted model "
            "(ProfileModel); model '" +
            checker_.arch().name() + "' is not one");
    }
    streaming_ = std::make_unique<mc::StreamingChecker>(model->profile());
}

std::vector<sim::Program>
Workload::emitPrograms(const gp::Test &test,
                       gp::ThreadSlots &slot_tables) const
{
    const TestMemLayout &layout = services_.layout();
    const int num_threads = system_.numCores();
    test.threadSlots(num_threads, slot_tables);

    std::vector<sim::Program> programs(
        static_cast<std::size_t>(num_threads));
    for (int t = 0; t < num_threads; ++t) {
        sim::Program &prog = programs[static_cast<std::size_t>(t)];
        prog.mapLogical = [layout](Addr logical) {
            return layout.toPhys(logical);
        };
        prog.memSize = layout.memSize();
        prog.stride = layout.stride();
        for (const std::size_t node_idx : slot_tables.thread(t)) {
            const gp::Op &op = test.node(node_idx).op;
            sim::ProgInstr instr;
            instr.kind = toInstrKind(op.kind);
            instr.logical = op.addr;
            instr.addr = op.isMem() ? layout.toPhys(op.addr) : 0;
            instr.delay = op.delay;
            prog.instrs.push_back(instr);
        }
    }
    return programs;
}

gp::StaticEventId
Workload::staticIdOf(const mc::Event &ev,
                     const gp::ThreadSlots &slots) const
{
    if (ev.isInit()) {
        const Addr logical = services_.layout().toLogical(ev.addr);
        return gp::initStaticEventId(logical);
    }
    const auto thread = slots.thread(ev.iiid.pid);
    const std::size_t node_idx =
        thread[static_cast<std::size_t>(ev.iiid.poi)];
    return gp::staticEventId(node_idx, ev.sub);
}

void
Workload::accumulateNd(const mc::ExecWitness &witness,
                       const gp::ThreadSlots &slots)
{
    const TestMemLayout &layout = services_.layout();
    auto add = [&](mc::EventId from, mc::EventId to) {
        const mc::Event &producer = witness.event(from);
        const mc::Event &consumer = witness.event(to);
        const gp::StaticEventId psid = staticIdOf(producer, slots);
        const gp::StaticEventId csid = staticIdOf(consumer, slots);
        nd_.addEdge(psid, csid);
        if (!consumer.isInit() && layout.contains(consumer.addr)) {
            nd_.noteEventAddr(csid, layout.toLogical(consumer.addr));
        }
    };
    // rf and co edges, streamed from the witness's dense per-event
    // arrays: every read is the target of one rf edge from its source,
    // every write with a co-predecessor the target of one co edge.
    const auto num_events = static_cast<mc::EventId>(witness.numEvents());
    for (mc::EventId e = 0; e < num_events; ++e) {
        if (witness.event(e).isRead()) {
            const mc::EventId src = witness.rfSource(e);
            if (src != mc::kNoEvent)
                add(src, e);
        } else {
            const mc::EventId pred = witness.coPredecessor(e);
            if (pred != mc::kNoEvent)
                add(pred, e);
        }
    }
}

RunResult
Workload::runTest(const gp::Test &test, const ConditionFn &condition)
{
    const auto t0 = std::chrono::steady_clock::now();
    RunResult result;

    std::vector<sim::Program> programs =
        emitPrograms(test, slotScratch_);

    // make_test_thread: host writes each thread's code.
    for (Pid p = 0; p < static_cast<Pid>(system_.numCores()); ++p)
        services_.makeTestThread(p, programs[static_cast<std::size_t>(p)]);

    nd_.beginRun(test.countEvents());
    system_.coverage().beginRun();
    result.preRunCounts = system_.coverage().preRunCounts();

    const Tick ticks0 = system_.eventQueue().now();
    const std::uint64_t kernel_events0 = system_.eventQueue().processed();
    const std::uint64_t messages0 = system_.network().messagesSent();
    const mc::VerdictCache *verdict_cache = checker_.verdictCache();
    const std::uint64_t distinct0 =
        verdict_cache != nullptr ? verdict_cache->stats().distinct : 0;

    system_.witness().setEventSink(streaming_ != nullptr
                                       ? streaming_.get()
                                       : nullptr);

    // Bounded-window recording (soak runs): streaming mode only, and
    // incompatible with litmus conditions, which inspect the finalized
    // witness every iteration. The witness must be empty before its
    // window can change, so clear last run's leftover events first.
    const std::size_t window =
        streaming_ != nullptr && condition == nullptr
            ? params_.witnessWindow
            : 0;
    system_.witness().reset();
    system_.witness().setWindow(window);
    if (streaming_ != nullptr)
        streaming_->setWindow(window);

    for (int iter = 0; iter < params_.iterations; ++iter) {
        // reset_test_mem: initial values + cache flush.
        services_.resetTestMem();
        system_.witness().reset();
        if (streaming_ != nullptr) {
            streaming_->begin();
            streaming_->setThrowOnViolation(true);
        }

        if (params_.guestOverhead > 0) {
            // Guest-side setup (software barrier arrival, test-memory
            // reset loops) consumes simulated time before any thread
            // can be released.
            system_.eventQueue().scheduleFnIn(
                params_.guestOverhead,
                [](void *, std::uint64_t, std::uint64_t, std::uint64_t,
                   std::uint64_t) {},
                nullptr);
            system_.runToQuiescence();
        }

        // barrier_wait_precise + execute code + barrier_wait_coarse.
        services_.barrierWaitPrecise(params_.barrierSkew);
        try {
            services_.barrierWaitCoarse();
        } catch (const sim::ProtocolError &err) {
            result.protocolError = true;
            result.protocolErrorInfo = err.what();
            result.violationIteration = iter;
            result.iterationsRun = iter + 1;
            break;
        } catch (const mc::StreamingViolation &) {
            // Early stop: the streaming checker flagged the violating
            // event mid-simulation. Drop the in-flight simulation
            // state; the witness prefix cannot be finalized (store-
            // forwarded reads may still await their producing writes),
            // so the verdict is rendered from the streaming graphs.
            system_.eventQueue().clearPending();
            system_.resetProtocolState();
            result.eventsExecuted += system_.witness().numEvents();
            result.eventsUntilDetection =
                streaming_->eventsUntilDetection();
            const auto c0 = std::chrono::steady_clock::now();
            mc::CheckResult check =
                streaming_->earlyStopResult(system_.witness());
            result.checkSeconds += secondsSince(c0);
            result.violation = true;
            result.checkResult = std::move(check);
            result.violationIteration = iter;
            result.iterationsRun = iter + 1;
            break;
        } catch (const sim::WatchdogAbort &) {
            // Livelock watchdog: the event cap fired (replay storms
            // can self-sustain under extreme conflict). Abandon this
            // iteration: drop all in-flight events and state; the next
            // iteration starts from a clean reset.
            ++result.watchdogAborts;
            system_.eventQueue().clearPending();
            system_.resetProtocolState();
            system_.witness().reset();
            continue;
        }

        result.eventsExecuted += system_.witness().numEvents();
        // A windowed witness cannot finalize; checkStreamed() settles
        // the verdict from the streaming graphs (and the retained ring
        // when diagnostics are needed).
        if (window == 0)
            system_.witness().finalize();

        // verify_reset_conflict / verify_reset_all: check the candidate
        // execution.
        if (params_.checkEveryIteration) {
            const auto c0 = std::chrono::steady_clock::now();
            mc::CheckResult check =
                streaming_ != nullptr
                    ? checker_.checkStreamed(system_.witness(),
                                             *streaming_)
                    : checker_.check(system_.witness());
            result.checkSeconds += secondsSince(c0);
            if (!check.ok()) {
                result.violation = true;
                result.checkResult = std::move(check);
                result.violationIteration = iter;
                result.iterationsRun = iter + 1;
                break;
            }
        }
        if (condition && condition(system_.witness())) {
            result.conditionHit = true;
            result.violationIteration = iter;
            result.iterationsRun = iter + 1;
            break;
        }

        // NDT accumulation walks resolved conflict orders, which a
        // windowed witness does not have. When the ring retained the
        // whole stream, replay and finalize into scratch so the GA's
        // NDT fitness signal (and hence the evolution trajectory)
        // matches unbounded mode exactly; only genuinely truncated
        // streams lose the signal -- conflict orders through evicted
        // events are undecidable.
        if (window == 0) {
            accumulateNd(system_.witness(), slotScratch_);
        } else if (system_.witness().droppedEvents() == 0) {
            system_.witness().replayRetainedInto(ndScratch_);
            ndScratch_.finalize();
            accumulateNd(ndScratch_, slotScratch_);
        }
        result.iterationsRun = iter + 1;
    }

    // Detach the sink: the witness outlives this run and must not call
    // into per-run streaming state from elsewhere.
    system_.witness().setEventSink(nullptr);

    result.simTicks = system_.eventQueue().now() - ticks0;
    result.simEvents = system_.eventQueue().processed() - kernel_events0;
    result.messagesSent = system_.network().messagesSent() - messages0;
    result.coveredTransitions = system_.coverage().endRun();
    if (verdict_cache != nullptr) {
        result.newInterleavings =
            verdict_cache->stats().distinct - distinct0;
    }
    result.nd = nd_.info();
    result.totalSeconds = secondsSince(t0);
    return result;
}

} // namespace mcversi::host
