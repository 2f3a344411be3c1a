/**
 * @file
 * The seeded config fuzzer module (src/check/config_fuzz.hh): sampler
 * validity over many draws, repro JSON round-trip, greedy minimizer
 * behaviour on a synthetic predicate, and a full runFuzzCase smoke.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "check/config_fuzz.hh"
#include "common/rng.hh"

namespace abndp
{

TEST(ConfigFuzz, BaselineIsValid)
{
    SystemConfig cfg = check::minimalFuzzBaseline();
    EXPECT_TRUE(check::fuzzConfigValid(cfg));
    cfg.validate(); // would fatal() on inconsistency
    EXPECT_TRUE(cfg.checkInvariants);
}

TEST(ConfigFuzz, SamplerProducesValidVariedConfigs)
{
    Rng rng(0xf022u);
    std::set<std::string> jsons;
    for (int i = 0; i < 200; ++i) {
        check::FuzzCase c = check::sampleFuzzCase(rng);
        ASSERT_TRUE(check::fuzzConfigValid(c.cfg)) << "draw " << i;
        c.cfg.validate(); // must never fatal(): validity by construction
        EXPECT_TRUE(c.cfg.checkInvariants);
        EXPECT_EQ(c.cfg.numUnits() % c.cfg.numGroups(), 0u);
        EXPECT_FALSE(c.workload.empty());
        jsons.insert(check::fuzzCaseToJson(c));
    }
    // The space is large; 200 draws collapsing to a handful of
    // distinct configs would mean the sampler is broken.
    EXPECT_GT(jsons.size(), 150u);
}

TEST(ConfigFuzz, SamplerIsDeterministic)
{
    Rng a(77), b(77);
    for (int i = 0; i < 20; ++i) {
        check::FuzzCase ca = check::sampleFuzzCase(a);
        check::FuzzCase cb = check::sampleFuzzCase(b);
        EXPECT_EQ(check::fuzzCaseToJson(ca), check::fuzzCaseToJson(cb));
        EXPECT_EQ(ca.workload, cb.workload);
    }
}

TEST(ConfigFuzz, JsonRoundTripsEveryKnob)
{
    Rng rng(0x10adu);
    for (int i = 0; i < 50; ++i) {
        check::FuzzCase c = check::sampleFuzzCase(rng);
        std::string json = check::fuzzCaseToJson(c);
        check::FuzzCase back = check::fuzzCaseFromJson(json);
        EXPECT_EQ(back.workload, c.workload);
        // Re-serialization canonicalizes: equality here means every
        // knob survived the trip (including hexfloat doubles).
        EXPECT_EQ(check::fuzzCaseToJson(back), json) << "draw " << i;
    }
}

TEST(ConfigFuzzDeath, JsonRejectsUnknownKeyAndGarbage)
{
    EXPECT_DEATH(check::fuzzCaseFromJson("{\"bogusKnob\": \"1\"}"),
                 "unknown key");
    EXPECT_DEATH(check::fuzzCaseFromJson("no pairs here"),
                 "no key/value pairs");
}

TEST(ConfigFuzzDeath, ValidityFilterAgreesWithValidate)
{
    // The fuzzer's validity filter and validate() read one rule list:
    // a config the filter admits must run under every NDP design, and
    // one validate() would reject must not survive minimization.
    struct Row
    {
        const char *what;
        void (*mutate)(SystemConfig &);
        const char *fatalFragment; // nullptr: the config is valid
    };
    const Row rows[] = {
        {"non-pow2 L1-D size",
         [](SystemConfig &c) { c.l1d.sizeBytes = 48 << 10; },
         "L1-D size \\(49152 bytes\\) must be a nonzero power of two"},
        {"zero L1-I associativity",
         [](SystemConfig &c) { c.l1i.assoc = 0; },
         "L1-I associativity must be nonzero"},
        {"negative pbHitNs", [](SystemConfig &c) { c.pbHitNs = -1.0; },
         "pbHitNs must be non-negative"},
        {"negative Traveller tag check",
         [](SystemConfig &c) { c.traveller.tagCheckNs = -1.0; },
         "traveller tagCheckNs and sramDataNs must be non-negative"},
        {"link dropping every packet",
         [](SystemConfig &c) {
             c.fault.link.count = 1;
             c.fault.link.dropProb = 1.0;
         },
         "link dropProb must be within"},
        {"ECC retry on every read",
         [](SystemConfig &c) { c.fault.dram.eccRetryProb = 1.0; },
         "dram eccRetryProb must be within"},
        {"TLB geometry while the TLB is off",
         [](SystemConfig &c) {
             c.tlb.enabled = false;
             c.tlb.entries = 3;
             c.tlb.assoc = 2;
         },
         nullptr},
    };
    for (const Row &row : rows) {
        SystemConfig c = check::minimalFuzzBaseline();
        row.mutate(c);
        if (row.fatalFragment == nullptr) {
            EXPECT_TRUE(check::fuzzConfigValid(c)) << row.what;
            continue;
        }
        EXPECT_FALSE(check::fuzzConfigValid(c)) << row.what;
        EXPECT_DEATH(applyDesign(c, Design::O).validate(),
                     row.fatalFragment)
            << row.what;
    }
}

TEST(ConfigFuzz, MetricsFingerprintSeparatesFields)
{
    RunMetrics a;
    a.tasks = 10;
    RunMetrics b = a;
    EXPECT_EQ(check::metricsFingerprint(a), check::metricsFingerprint(b));
    b.hostSeconds = 123.0; // excluded: wall clock is never deterministic
    EXPECT_EQ(check::metricsFingerprint(a), check::metricsFingerprint(b));
    const auto &rows = metricRows();
    for (std::size_t i = 0; i < rows.size(); ++i) {
        RunMetrics c = a;
        rows[i].visit(c, [](auto &v) {
            if constexpr (std::is_arithmetic_v<
                              std::remove_reference_t<decltype(v)>>)
                v += 1;
            else
                v.push_back(1);
        });
        EXPECT_NE(check::metricsFingerprint(a),
                  check::metricsFingerprint(c))
            << "row " << i << ": " << (rows[i].path ? rows[i].path : "-");
    }
}

TEST(ConfigFuzz, MinimizerReachesBaselineWhenEverythingFails)
{
    // If the predicate always fails, every knob resets and the
    // minimizer must land exactly on the minimal baseline.
    Rng rng(0x3333u);
    check::FuzzCase c = check::sampleFuzzCase(rng);
    SystemConfig minimized = check::minimizeConfig(
        c.cfg, [](const SystemConfig &) { return true; });
    check::FuzzCase base;
    base.cfg = check::minimalFuzzBaseline();
    base.workload = c.workload;
    check::FuzzCase got;
    got.cfg = minimized;
    got.workload = c.workload;
    EXPECT_EQ(check::fuzzCaseToJson(got), check::fuzzCaseToJson(base));
}

TEST(ConfigFuzz, MinimizerPreservesTheFailureTrigger)
{
    // Synthetic failure that depends on exactly two knobs; everything
    // else must reset, those two must survive.
    Rng rng(0x4444u);
    check::FuzzCase c;
    do {
        c = check::sampleFuzzCase(rng);
    } while (c.cfg.unitsPerStack == 2 ||
             c.cfg.net.intraTopology != IntraTopology::Ring);
    auto trigger = [](const SystemConfig &cfg) {
        return cfg.unitsPerStack == 4 &&
            cfg.net.intraTopology == IntraTopology::Ring;
    };
    ASSERT_TRUE(trigger(c.cfg));
    SystemConfig minimized = check::minimizeConfig(c.cfg, trigger);
    EXPECT_TRUE(trigger(minimized));
    // Every knob not implicated in the trigger resets to baseline.
    SystemConfig base = check::minimalFuzzBaseline();
    EXPECT_EQ(minimized.meshX, base.meshX);
    EXPECT_EQ(minimized.meshY, base.meshY);
    EXPECT_EQ(minimized.seed, base.seed);
    EXPECT_EQ(minimized.memBytesPerUnit, base.memBytesPerUnit);
    EXPECT_EQ(minimized.traveller.campCount, base.traveller.campCount);
}

TEST(ConfigFuzz, MinimizerSkipsInvalidIntermediates)
{
    // Start from a config whose group count equals its unit count
    // (>= 8): resetting a mesh dimension or unitsPerStack alone would
    // break the divisibility constraint, so the minimizer must reset
    // campCount first (fixpoint sweep) — and never hand the predicate
    // an invalid config.
    Rng rng(0x5555u);
    check::FuzzCase c;
    do {
        c = check::sampleFuzzCase(rng);
    } while (c.cfg.numGroups() != c.cfg.numUnits() ||
             c.cfg.numUnits() < 8);
    SystemConfig minimized = check::minimizeConfig(
        c.cfg, [](const SystemConfig &cfg) {
            EXPECT_TRUE(check::fuzzConfigValid(cfg));
            return true;
        });
    EXPECT_TRUE(check::fuzzConfigValid(minimized));
    EXPECT_EQ(minimized.numUnits() % minimized.numGroups(), 0u);
}

TEST(ConfigFuzz, PrunedScoringOnTinyMachineRegression)
{
    // Found by fuzz_configs --seed=1 (case 2): the pruned-scoring
    // most-idle hint sorted its nominal 8 entries past the end of the
    // unit list on machines with fewer than 8 units — heap overflow.
    check::FuzzCase c;
    c.cfg = check::minimalFuzzBaseline(); // 2 units, far below 8
    c.cfg.sched.exhaustiveScoring = false;
    c.workload = "gcn";
    check::FuzzReport rep = check::runFuzzCase(c, 1);
    EXPECT_TRUE(rep.ok) << rep.message;
}

TEST(ConfigFuzz, SamplerExercisesBothMemBackends)
{
    // The mem-backend axis fires for ~1 draw in 3; over 200 draws both
    // backends must appear, and every DDR draw must carry knobs that
    // survive validate() (checked in SamplerProducesValidVariedConfigs
    // via the shared loop — here we only pin the axis coverage).
    Rng rng(0xddc0u);
    int nDdr = 0, nMeter = 0;
    for (int i = 0; i < 200; ++i) {
        check::FuzzCase c = check::sampleFuzzCase(rng);
        if (c.cfg.dram.backend == MemBackendKind::Ddr) {
            ++nDdr;
            EXPECT_EQ(c.cfg.dram.banks % c.cfg.dram.bankGroups, 0u);
            EXPECT_EQ(c.cfg.dram.rowBytes % c.cfg.dram.burstBytes, 0u);
            EXPECT_GE(c.cfg.dram.tRasNs, c.cfg.dram.tRcdNs);
        } else {
            ++nMeter;
        }
    }
    EXPECT_GT(nDdr, 30);
    EXPECT_GT(nMeter, 60);
}

TEST(ConfigFuzz, RunFuzzCaseDdrSmoke)
{
    // One end-to-end DDR case through all six designs with checkers
    // armed: exercises the bank state machines, the tFAW ACT-window
    // audit, and the differential-visible counters under the full
    // metamorphic harness (determinism + thread invariance).
    check::FuzzCase c;
    c.cfg = check::minimalFuzzBaseline();
    c.cfg.dram.backend = MemBackendKind::Ddr;
    c.cfg.dram.pagePolicy = PagePolicy::Adaptive;
    c.cfg.dram.addrMap = DramAddrMapKind::RowColumnBank;
    c.workload = "pr";
    check::FuzzReport rep = check::runFuzzCase(c, 2);
    EXPECT_TRUE(rep.ok) << rep.message;
}

TEST(ConfigFuzz, RunFuzzCaseSmoke)
{
    // One real end-to-end case through all six NDP designs, twice
    // (sequential + 2-thread grid), with checkers armed.
    check::FuzzCase c;
    c.cfg = check::minimalFuzzBaseline();
    c.cfg.meshX = 2; // exercise inter-stack hops too
    c.workload = "pr";
    check::FuzzReport rep = check::runFuzzCase(c, 2);
    EXPECT_TRUE(rep.ok) << rep.message;
    EXPECT_TRUE(rep.message.empty());
}

} // namespace abndp
