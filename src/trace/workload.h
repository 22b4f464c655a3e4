/**
 * @file
 * Workload mixes: the six evaluation sets of Section 4.3.
 *
 *   - 180:   all traces from all nine sites;
 *   - 60L:   the 60 lowest-mean-utilization traces;
 *   - 60M:   the 60 middle traces;
 *   - 60H:   the 60 highest traces;
 *   - 60HH:  60 synthetic traces, each stacking 2 real traces;
 *   - 60HHH: 60 synthetic traces, each stacking 3 real traces.
 */

#ifndef NPS_TRACE_WORKLOAD_H
#define NPS_TRACE_WORKLOAD_H

#include <string>
#include <vector>

#include "trace/generator.h"
#include "trace/trace.h"

namespace nps {
namespace trace {

/** The six evaluation mixes of the paper. */
enum class Mix
{
    All180,
    Low60,
    Mid60,
    High60,
    HH60,
    HHH60,
};

/** @return the paper's label for a mix ("180", "60L", ...). */
const char *mixName(Mix mix);

/** @return the mix labelled @p name; fatal() on an unknown label. */
Mix mixFromName(const std::string &name);

/** @return all mixes in the order the paper's figures list them. */
std::vector<Mix> allMixes();

/** @return the number of workloads in a mix (180 or 60). */
size_t mixSize(Mix mix);

/**
 * Builds the evaluation mixes out of a full 180-trace campaign.
 */
class WorkloadLibrary
{
  public:
    /** Generate the campaign with the given configuration. */
    explicit WorkloadLibrary(const GeneratorConfig &config);

    /** Adopt an externally produced campaign (e.g. loaded from CSV). */
    explicit WorkloadLibrary(std::vector<UtilizationTrace> traces);

    /** @return the full campaign, in generation order. */
    const std::vector<UtilizationTrace> &all() const { return traces_; }

    /** @return the traces of one mix (copies). */
    std::vector<UtilizationTrace> mix(Mix mix) const;

    /** Mean utilization over every trace of a mix. */
    double mixMeanUtil(Mix mix) const;

  private:
    /** Indices of traces_ sorted by ascending mean utilization. */
    std::vector<size_t> byMeanUtil() const;

    std::vector<UtilizationTrace> traces_;
};

} // namespace trace
} // namespace nps

#endif // NPS_TRACE_WORKLOAD_H
