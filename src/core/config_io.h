/**
 * @file
 * Configuration file binding: load and save a CoordinationConfig (and
 * the experiment-level knobs around it) as an INI document, so a whole
 * deployment can be described declaratively:
 *
 *     [deployment]
 *     coordinated = true
 *     enable_cap = false
 *     [ec]
 *     lambda = 0.8
 *     r_ref = 0.75
 *     [budgets]
 *     group_off = 0.20
 *     ...
 *
 * Loading is strict: unknown sections or keys are fatal errors, so a
 * typo cannot silently fall back to a default, and every value goes
 * through util/parse.h. Each key is one row of configFields() (or
 * topologyFields()); the reader, the writer and the key check all
 * iterate that table.
 */

#ifndef NPS_CORE_CONFIG_IO_H
#define NPS_CORE_CONFIG_IO_H

#include <string>
#include <vector>

#include "core/config.h"
#include "sim/topology.h"
#include "util/fields.h"
#include "util/ini.h"

namespace nps {
namespace core {

/** The config schema: one row per (section, key), in dump order. */
const std::vector<util::Field<CoordinationConfig>> &configFields();

/** The [topology] schema, in dump order. */
const std::vector<util::Field<sim::Topology>> &topologyFields();

/**
 * Parse a CoordinationConfig from an INI document. Keys not present
 * keep their Figure 5 defaults; unknown sections/keys are fatal.
 */
CoordinationConfig configFromIni(const util::IniDocument &ini);

/** Load a configuration from an INI file. */
CoordinationConfig loadConfigFile(const std::string &path);

/** Render a configuration (all knobs, current values) as INI text. */
util::IniDocument configToIni(const CoordinationConfig &config);

/**
 * Parse a sim::Topology from an INI document holding one [topology]
 * section:
 *
 *     [topology]
 *     servers = 60
 *     enclosures = 6
 *     enclosure_size = 8
 *     tree = dc(z0(z0r0(e0,s48),...),...)
 *
 * Keys not present keep the paper-180 defaults; 'tree' uses the
 * sim::Topology::treeText() grammar and may be omitted for the flat
 * Figure 2 shape. Unknown sections/keys are fatal; the result is
 * validate()d before it is returned.
 */
sim::Topology topologyFromIni(const util::IniDocument &ini);

/** Load a topology from an INI file. */
sim::Topology loadTopologyFile(const std::string &path);

/**
 * Render a topology as INI text. topologyFromIni() round-trips the
 * output exactly (write-read-write is a fixed point).
 */
util::IniDocument topologyToIni(const sim::Topology &topo);

} // namespace core
} // namespace nps

#endif // NPS_CORE_CONFIG_IO_H
