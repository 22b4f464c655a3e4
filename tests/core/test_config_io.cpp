/**
 * @file
 * Tests for the INI configuration binding: defaults, overrides, strict
 * schema validation, and write/load round trips.
 */

#include <gtest/gtest.h>

#include <fstream>

#include "common/fields.h"
#include "core/config_io.h"

namespace {

using namespace nps;
using namespace nps::core;

TEST(ConfigIo, EmptyDocumentYieldsDefaults)
{
    auto cfg = configFromIni(util::parseIni(""));
    CoordinationConfig dflt;
    EXPECT_EQ(cfg.coordinated, dflt.coordinated);
    EXPECT_EQ(cfg.ec.period, dflt.ec.period);
    EXPECT_DOUBLE_EQ(cfg.ec.lambda, dflt.ec.lambda);
    EXPECT_DOUBLE_EQ(cfg.budgets.grp_off_frac,
                     dflt.budgets.grp_off_frac);
}

TEST(ConfigIo, OverridesApply)
{
    auto cfg = configFromIni(util::parseIni(
        "[deployment]\n"
        "coordinated = false\n"
        "enable_cap = true\n"
        "alpha_m = 0.2\n"
        "[ec]\n"
        "lambda = 0.5\n"
        "objective = energy-delay\n"
        "[vmc]\n"
        "period = 250\n"
        "use_forecast = true\n"
        "forecast_method = holt\n"
        "[budgets]\n"
        "group_off = 0.30\n"));
    EXPECT_FALSE(cfg.coordinated);
    EXPECT_TRUE(cfg.enable_cap);
    EXPECT_DOUBLE_EQ(cfg.alpha_m, 0.2);
    EXPECT_DOUBLE_EQ(cfg.ec.lambda, 0.5);
    EXPECT_EQ(cfg.ec.objective, controllers::EcObjective::EnergyDelay);
    EXPECT_EQ(cfg.vmc.period, 250u);
    EXPECT_TRUE(cfg.vmc.use_forecast);
    EXPECT_EQ(cfg.vmc.forecast.method,
              controllers::ForecastMethod::HoltLinear);
    EXPECT_DOUBLE_EQ(cfg.budgets.grp_off_frac, 0.30);
    // Untouched knobs keep defaults.
    EXPECT_DOUBLE_EQ(cfg.budgets.loc_off_frac, 0.10);
}

TEST(ConfigIo, PolicyNames)
{
    auto cfg = configFromIni(util::parseIni(
        "[em]\npolicy = equal\n[gm]\npolicy = history\n"));
    EXPECT_EQ(cfg.em.policy, controllers::DivisionPolicy::Equal);
    EXPECT_EQ(cfg.gm.policy, controllers::DivisionPolicy::History);
}

TEST(ConfigIo, UnknownSectionDies)
{
    EXPECT_DEATH(configFromIni(util::parseIni("[typo]\nx = 1\n")),
                 "unknown section");
}

TEST(ConfigIo, UnknownKeyDies)
{
    EXPECT_DEATH(configFromIni(util::parseIni("[ec]\nlamda = 0.8\n")),
                 "unknown key");
}

TEST(ConfigIo, BadEnumsDie)
{
    EXPECT_DEATH(configFromIni(util::parseIni(
                     "[em]\npolicy = roundrobin\n")),
                 "\\[em\\] policy: 'roundrobin' is not one of prop, "
                 "equal, prio, fifo, random, history");
    EXPECT_DEATH(configFromIni(util::parseIni(
                     "[ec]\nobjective = yolo\n")),
                 "\\[ec\\] objective: 'yolo' is not one of tracking, "
                 "energy-delay");
    EXPECT_DEATH(configFromIni(util::parseIni(
                     "[vmc]\nforecast_method = crystal\n")),
                 "\\[vmc\\] forecast_method: 'crystal' is not one of "
                 "last, ewma, holt");
}

TEST(ConfigIo, BadScalarsDie)
{
    // Each value is rejected by the strict parser, naming the section,
    // the key and the raw token — none wraps, saturates or becomes NaN.
    auto dies = [](const char *text, const char *message) {
        EXPECT_DEATH(configFromIni(util::parseIni(text)), message) << text;
    };
    dies("[ec]\nperiod = -1\n",
         "config \\[ec\\] period: '-1' is not an integer in "
         "\\[0, 4294967295\\]");
    dies("[deployment]\nalpha_v = nan\n",
         "config \\[deployment\\] alpha_v: 'nan' is not a finite number");
    dies("[deployment]\nalpha_m = 1e999\n", "alpha_m: '1e999'");
    dies("[deployment]\nthreads = 4x\n", "threads: '4x'");
    dies("[em]\nseed = 18446744073709551616\n",
         "seed: '18446744073709551616'");
    dies("[vmc]\nuse_forecast = maybe\n",
         "use_forecast: 'maybe' is not a boolean");
    dies("[obs]\npublish_every = 0\n",
         "publish_every: '0' is not an integer in \\[1, 4294967295\\]");
    dies("[stream]\nmax_pending = 0\n", "max_pending: '0'");
    dies("[faults]\nscript = outage em 1 10junk 20\n", "'10junk'");
    // Semantic ranges are checked at load, naming the key, not at the
    // first controller step that would divide by them.
    dies("[em]\ndemand_horizon = -5\n",
         "config \\[em\\] demand_horizon: '-5' is not a finite number "
         "in \\[1, ");
    dies("[gm]\nhistory_horizon = 0.5\n", "history_horizon: '0.5'");
    dies("[sm]\nlease_fallback = 1.5\n",
         "lease_fallback: '1.5' is not a finite number in \\[0, 1\\]");
    dies("[em]\nlease_fallback = -0.1\n", "lease_fallback: '-0.1'");
    dies("[faults]\ndrop_prob = 2\n", "drop_prob: '2'");
    dies("[faults]\nnoise_sigma = -0.1\n", "noise_sigma: '-0.1'");
}

TEST(ConfigIo, RoundTripPreservesEverything)
{
    // Move every row of the schema off its default — to the far end of
    // its range (u64-max seeds included), then to the near end — and
    // require write -> read to give each row back bit-for-bit: doubles
    // are written in a form that parses to the same bits, so equal text
    // is equal bits.
    for (bool high : {true, false}) {
        CoordinationConfig cfg;
        for (const auto &f : configFields()) {
            f.read(cfg,
                   f.kind == util::FieldKind::Text // the fault script
                       ? "outage em 1 10 20; drop gm-em * 5 9 0.5"
                       : nps_test::otherValue(f, f.write(cfg), high),
                   f.key);
        }
        auto back = configFromIni(configToIni(cfg));
        CoordinationConfig dflt;
        for (const auto &f : configFields()) {
            EXPECT_NE(f.write(cfg), f.write(dflt)) << f.key;
            EXPECT_EQ(f.write(back), f.write(cfg))
                << "[" << f.section << "] " << f.key;
        }
        EXPECT_EQ(configToIni(back).toText(), configToIni(cfg).toText());
    }
    CoordinationConfig seeds;
    seeds.em.seed = seeds.gm.seed = seeds.faults.seed = UINT64_MAX;
    auto back = configFromIni(configToIni(seeds));
    EXPECT_EQ(back.em.seed, UINT64_MAX);
    EXPECT_EQ(back.gm.seed, UINT64_MAX);
    EXPECT_EQ(back.faults.seed, UINT64_MAX);
}

TEST(ConfigIo, DumpedDefaultsValidateAgainstSchema)
{
    // Everything configToIni writes must be loadable (schema closed
    // under dump).
    auto cfg = configFromIni(configToIni(CoordinationConfig{}));
    EXPECT_EQ(cfg.ec.period, 1u);
}

TEST(ConfigIo, LoadFromFile)
{
    std::string path = ::testing::TempDir() + "/nps_cfg.ini";
    {
        std::ofstream out(path);
        out << "[deployment]\ncoordinated = false\n";
    }
    auto cfg = loadConfigFile(path);
    EXPECT_FALSE(cfg.coordinated);
}

TEST(ConfigIo, TypoedKeyInRecognizedSectionDiesNamingBoth)
{
    // A typo inside a *known* section must not fall back to the default
    // silently, and the error has to name both the key and the section.
    EXPECT_DEATH(configFromIni(util::parseIni("[sm]\nlease_tiks = 12\n")),
                 "unknown key 'lease_tiks' in \\[sm\\]");
    EXPECT_DEATH(configFromIni(util::parseIni("[gm]\nperiodd = 60\n")),
                 "unknown key 'periodd' in \\[gm\\]");
}

TEST(ConfigIo, NumbersRoundTripBitExactly)
{
    // Checkpoint resume rebuilds the simulation from configToIni text,
    // so every double must round-trip to the identical bit pattern —
    // including values %g's 6 significant digits cannot represent.
    CoordinationConfig original;
    original.ec.lambda = 0.1 + 0.2; // 0.30000000000000004
    original.sm.beta = 1.0 / 3.0;
    original.vmc.capacity_target = 0.7000000000000001;
    // The fault script is stored re-rendered; its magnitudes too.
    original.faults.script = "drop gm-em * 1 5 0.30000000000000004";

    auto back = configFromIni(configToIni(original));
    EXPECT_EQ(back.faults.script, "drop gm-em * 1 5 0.30000000000000004");
    EXPECT_EQ(back.ec.lambda, original.ec.lambda);
    EXPECT_EQ(back.sm.beta, original.sm.beta);
    EXPECT_EQ(back.vmc.capacity_target, original.vmc.capacity_target);
}

} // namespace
