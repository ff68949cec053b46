#include "trace.hh"

#include <cstdio>

#include "stats.hh"

namespace perfbench {

double
Tracer::total(const std::string &name, int run) const
{
    double sum = 0.0;
    for (const Record &s : spans_) {
        if (s.run == run && name == s.name)
            sum += s.end - s.start;
    }
    return sum;
}

double
Tracer::self(const std::string &name, int run) const
{
    std::vector<double> child(spans_.size(), 0.0);
    for (const Record &s : spans_) {
        if (s.parent != kNoSpan)
            child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
    double sum = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Record &s = spans_[i];
        if (s.run == run && name == s.name)
            sum += s.end - s.start - child[i];
    }
    return sum;
}

std::vector<double>
Tracer::durations(const std::string &name, int run) const
{
    std::vector<double> out;
    for (const Record &s : spans_) {
        if (s.run == run && name == s.name)
            out.push_back(s.end - s.start);
    }
    return out;
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Record &s = spans_[i];
        std::fprintf(f,
                     "{\"id\":%zu,\"name\":%s,\"start\":%.9f,\"end\":%.9f,"
                     "\"parent\":%lld,\"run\":%d}\n",
                     i, jsonString(s.name).c_str(), s.start, s.end,
                     static_cast<long long>(s.parent), s.run);
    }
    return std::fclose(f) == 0;
}

} // namespace perfbench
