/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * Spans are recorded from the benchmark's own code around the calls it
 * makes into each layer (gp, host, sim, mc, campaign); nothing inside
 * the program is instrumented. Each span has a name, start, end, the
 * span that was open when it began (its parent) and a run id, so the
 * self time of a layer is its spans' duration minus the part their
 * child spans cover. Spans stay in memory until write() at the end.
 *
 * A disabled tracer records nothing: Span objects reduce to a branch,
 * so the untraced path costs no clock reads.
 *
 * Single-threaded: spans must be opened and closed on the thread that
 * owns the tracer (the harnesses call the test source from the calling
 * thread only, so wrapping the source is safe).
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Tracer
{
  public:
    static constexpr std::int64_t kNoSpan = -1;

    explicit Tracer(bool enabled)
        : enabled_(enabled), origin_(std::chrono::steady_clock::now())
    {
    }

    bool enabled() const { return enabled_; }

    /** Spans opened from now on belong to run @p run. */
    void setRun(int run) { run_ = run; }

    /** Open a span; returns its id, or kNoSpan when disabled. */
    std::int64_t
    begin(const char *name)
    {
        if (!enabled_)
            return kNoSpan;
        const auto id = static_cast<std::int64_t>(spans_.size());
        spans_.push_back({name, now(), -1.0,
                          open_.empty() ? kNoSpan : open_.back(), run_});
        open_.push_back(id);
        return id;
    }

    void
    end(std::int64_t id)
    {
        if (id == kNoSpan)
            return;
        spans_[static_cast<std::size_t>(id)].end = now();
        open_.pop_back();
    }

    /** Sum of durations of spans named @p name in run @p run. */
    double total(const std::string &name, int run) const;

    /** Sum of self times (duration minus child spans) of @p name. */
    double self(const std::string &name, int run) const;

    /** Durations of every span named @p name in run @p run. */
    std::vector<double> durations(const std::string &name, int run) const;

    /** Write every span as JSON lines; returns false on I/O failure. */
    bool write(const std::string &path) const;

  private:
    struct Record
    {
        const char *name;
        double start;
        double end;
        std::int64_t parent;
        int run;
    };

    double
    now() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - origin_)
            .count();
    }

    bool enabled_;
    std::chrono::steady_clock::time_point origin_;
    int run_ = 0;
    std::vector<Record> spans_;
    std::vector<std::int64_t> open_;
};

/** RAII span: open on construction, close on destruction. */
class Span
{
  public:
    Span(Tracer &tracer, const char *name)
        : tracer_(tracer), id_(tracer.begin(name))
    {
    }
    ~Span() { tracer_.end(id_); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer &tracer_;
    std::int64_t id_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
