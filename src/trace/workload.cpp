#include "trace/workload.h"

#include <algorithm>
#include <numeric>

#include "util/logging.h"

namespace nps {
namespace trace {

const char *
mixName(Mix mix)
{
    switch (mix) {
      case Mix::All180: return "180";
      case Mix::Low60:  return "60L";
      case Mix::Mid60:  return "60M";
      case Mix::High60: return "60H";
      case Mix::HH60:   return "60HH";
      case Mix::HHH60:  return "60HHH";
    }
    return "?";
}

std::vector<Mix>
allMixes()
{
    return {Mix::All180, Mix::Low60, Mix::Mid60, Mix::High60, Mix::HH60,
            Mix::HHH60};
}

Mix
mixFromName(const std::string &name)
{
    for (auto mix : allMixes()) {
        if (name == mixName(mix))
            return mix;
    }
    util::fatal("unknown mix '%s'", name.c_str());
}

size_t
mixSize(Mix mix)
{
    return mix == Mix::All180 ? 180 : 60;
}

WorkloadLibrary::WorkloadLibrary(const GeneratorConfig &config)
    : traces_(TraceGenerator(config).generateAll())
{
}

WorkloadLibrary::WorkloadLibrary(std::vector<UtilizationTrace> traces)
    : traces_(std::move(traces))
{
    if (traces_.empty())
        util::fatal("WorkloadLibrary: empty trace set");
}

std::vector<size_t>
WorkloadLibrary::byMeanUtil() const
{
    std::vector<size_t> order(traces_.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) {
                         return traces_[a].mean() < traces_[b].mean();
                     });
    return order;
}

std::vector<UtilizationTrace>
WorkloadLibrary::mix(Mix mix) const
{
    const size_t n = traces_.size();
    if (mix == Mix::All180)
        return traces_;

    if (n < 180) {
        util::fatal("WorkloadLibrary: need a full 180-trace campaign for "
                    "the 60-trace mixes (have %zu)", n);
    }

    auto order = byMeanUtil();
    auto pick = [&](size_t offset, size_t count) {
        std::vector<UtilizationTrace> out;
        out.reserve(count);
        for (size_t i = 0; i < count; ++i)
            out.push_back(traces_[order[offset + i]]);
        return out;
    };

    switch (mix) {
      case Mix::Low60:
        return pick(0, 60);
      case Mix::Mid60:
        return pick((n - 60) / 2, 60);
      case Mix::High60:
        return pick(n - 60, 60);
      case Mix::HH60: {
        // Stack pairs of traces drawn from across the utilization range so
        // each synthetic workload combines dissimilar behaviors, as the
        // paper's stacking of real traces does.
        std::vector<UtilizationTrace> out;
        out.reserve(60);
        for (size_t i = 0; i < 60; ++i) {
            const auto &a = traces_[order[n - 1 - i]];
            const auto &b = traces_[order[n / 2 - 1 - i]];
            out.push_back(UtilizationTrace::stack(
                {a, b}, "hh" + std::to_string(i)));
        }
        return out;
      }
      case Mix::HHH60: {
        std::vector<UtilizationTrace> out;
        out.reserve(60);
        for (size_t i = 0; i < 60; ++i) {
            const auto &a = traces_[order[n - 1 - i]];
            const auto &b = traces_[order[n / 2 - 1 - i]];
            const auto &c = traces_[order[i]];
            out.push_back(UtilizationTrace::stack(
                {a, b, c}, "hhh" + std::to_string(i)));
        }
        return out;
      }
      case Mix::All180:
        break;
    }
    util::panic("WorkloadLibrary::mix: unreachable");
}

double
WorkloadLibrary::mixMeanUtil(Mix m) const
{
    auto traces = mix(m);
    double sum = 0.0;
    for (const auto &t : traces)
        sum += t.mean();
    return traces.empty() ? 0.0 : sum / static_cast<double>(traces.size());
}

} // namespace trace
} // namespace nps
