/**
 * @file
 * McVerSi umbrella header: the full public API.
 *
 * Typical use is the declarative Campaign API (see
 * examples/quickstart.cc): describe campaigns as specs, expand a
 * matrix, and run it on a worker pool:
 *
 *   using namespace mcversi::campaign;
 *   CampaignMatrix matrix;
 *   matrix.base = CampaignSpec::fromString(
 *       "test-size=256 iterations=4 max-runs=1000");
 *   matrix.bugs = {"MESI,LQ+IS,Inv", "MESI+PUTX-Race"};
 *   matrix.generators = {"McVerSi-ALL", "McVerSi-RAND"};
 *   matrix.seeds = {1, 2, 3};
 *   CampaignRunner runner({.threads = 8});
 *   CampaignSummary summary = runner.run(matrix.expand());
 *   std::cout << summary.toJson();
 *
 * Custom generators register by name next to the built-in
 * "McVerSi-ALL" / "McVerSi-Std.XO" / "McVerSi-RAND" / "diy-litmus":
 *
 *   campaign::SourceRegistry::instance().add("my-gen",
 *       [](const campaign::CampaignSpec &spec) { ... });
 *
 * The lower layers stay public for single-run control: build a
 * host::TestSource via the registry (or directly) and drive a
 * host::VerificationHarness yourself.
 */

#ifndef MCVERSI_MCVERSI_HH
#define MCVERSI_MCVERSI_HH

#include "common/rng.hh"
#include "common/types.hh"

#include "memconsistency/arch.hh"
#include "memconsistency/checker.hh"
#include "memconsistency/event.hh"
#include "memconsistency/execwitness.hh"
#include "memconsistency/graph.hh"
#include "memconsistency/models/engine.hh"
#include "memconsistency/models/profile.hh"
#include "memconsistency/models/registry.hh"

#include "sim/bugs.hh"
#include "sim/config.hh"
#include "sim/coverage.hh"
#include "sim/fault.hh"
#include "sim/system.hh"

#include "gp/crossover.hh"
#include "gp/evolution.hh"
#include "gp/fitness.hh"
#include "gp/ndmetrics.hh"
#include "gp/ops.hh"
#include "gp/params.hh"
#include "gp/randgen.hh"
#include "gp/test.hh"

#include "host/harness.hh"
#include "host/interface.hh"
#include "host/sources.hh"
#include "host/workload.hh"

#include "litmus/diy.hh"
#include "litmus/litmus.hh"
#include "litmus/runner.hh"
#include "litmus/suites.hh"

#include "campaign/registry.hh"
#include "campaign/result.hh"
#include "campaign/runner.hh"
#include "campaign/spec.hh"

#include "fleet/coordinator.hh"
#include "fleet/fs.hh"
#include "fleet/journal.hh"
#include "fleet/wire.hh"

#endif // MCVERSI_MCVERSI_HH
