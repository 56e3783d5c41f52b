#include "cli/cli.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace jinjing::cli {
namespace {

namespace fs = std::filesystem;

/// Temp-directory fixture writing the sample Figure 1 data files.
class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / ("jinjing_cli_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    const fs::path repo_data = fs::path(__FILE__).parent_path().parent_path() / "examples/data";
    for (const char* name : {"figure1.topo", "running_example.lai", "migration.lai",
                             "a1_new.acl", "a3_new.acl"}) {
      fs::copy_file(repo_data / name, dir_ / name, fs::copy_options::overwrite_existing);
    }
  }

  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const char* name) const { return (dir_ / name).string(); }

  struct Result {
    int code;
    std::string out;
    std::string err;
  };

  Result invoke(std::vector<std::string> args) {
    std::ostringstream out;
    std::ostringstream err;
    const int code = run(args, out, err);
    return {code, out.str(), err.str()};
  }

  fs::path dir_;
};

TEST_F(CliTest, ShowPrintsPathsAndAcls) {
  const auto r = invoke({"show", "--network", path("figure1.topo")});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("<A:1, A:4, D:1, D:3>"), std::string::npos);
  EXPECT_NE(r.out.find("D:2-in: 3 rules"), std::string::npos);
  EXPECT_NE(r.out.find("traffic classes (per entry): 5"), std::string::npos);
}

TEST_F(CliTest, AuditCleanNetwork) {
  const auto r = invoke({"audit", "--network", path("figure1.topo")});
  EXPECT_EQ(r.code, 0) << r.out;
  EXPECT_NE(r.out.find("audit clean"), std::string::npos);
}

TEST_F(CliTest, AuditFlagsBrokenNetwork) {
  std::ofstream broken{dir_ / "broken.topo"};
  broken << "device A\ndevice B\n"
            "interface A:1 external\ninterface A:2\ninterface B:1\n"
            "link A:1 -> A:2 all\nlink A:2 -> B:1 all\n"  // B:1 is a sink
            "acl A:1-in\n  deny dst 1.0.0.0/8\n  deny dst 1.0.0.0/8\n  permit all\nend\n";
  broken.close();
  const auto r = invoke({"audit", "--network", (dir_ / "broken.topo").string()});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.out.find("traffic-sink"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("shadowed-rule"), std::string::npos) << r.out;
}

TEST_F(CliTest, RunCheckFixPipeline) {
  const auto r = invoke({"run", "--network", path("figure1.topo"), "--program",
                         path("running_example.lai"), "--acl",
                         "A1_new=" + path("a1_new.acl"), "--acl",
                         "A3_new=" + path("a3_new.acl")});
  EXPECT_EQ(r.code, 0) << r.err << r.out;
  EXPECT_NE(r.out.find("check: FAILED (inconsistent"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("fix: ok"), std::string::npos);
  EXPECT_NE(r.out.find("update plan:"), std::string::npos);
  EXPECT_NE(r.out.find("deny dst 6.0.0.0/8"), std::string::npos);
}

TEST_F(CliTest, RunMigrationGenerate) {
  const auto r = invoke({"run", "--network", path("figure1.topo"), "--program",
                         path("migration.lai")});
  EXPECT_EQ(r.code, 0) << r.err << r.out;
  EXPECT_NE(r.out.find("generate: ok"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("acl C:1-in"), std::string::npos);
}

TEST_F(CliTest, UsageOnBadInvocations) {
  EXPECT_EQ(invoke({}).code, 2);
  EXPECT_EQ(invoke({"bogus", "--network", path("figure1.topo")}).code, 2);
  EXPECT_EQ(invoke({"run", "--network", path("figure1.topo")}).code, 2);  // no program
  EXPECT_EQ(invoke({"show"}).code, 2);                                    // no network
  EXPECT_EQ(invoke({"show", "--network", "/nonexistent.topo"}).code, 2);
  const auto r = invoke({"show", "--network"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("usage"), std::string::npos);
}

TEST_F(CliTest, BadAclArgRejected) {
  const auto r = invoke({"run", "--network", path("figure1.topo"), "--program",
                         path("running_example.lai"), "--acl", "no_equals_sign"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("NAME=FILE"), std::string::npos);
}


TEST_F(CliTest, RunWithDiffStageRollback) {
  const auto r = invoke({"run", "--network", path("figure1.topo"), "--program",
                         path("running_example.lai"), "--acl",
                         "A1_new=" + path("a1_new.acl"), "--acl",
                         "A3_new=" + path("a3_new.acl"), "--diff", "--rollback", "--stage",
                         "availability"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("changes:"), std::string::npos);
  EXPECT_NE(r.out.find("staged deployment (availability-first):"), std::string::npos);
  EXPECT_NE(r.out.find("phase 1 push"), std::string::npos);
  EXPECT_NE(r.out.find("rollback plan:"), std::string::npos);
  // The rollback restores D2's original denies.
  EXPECT_NE(r.out.find("deny dst 1.0.0.0/8"), std::string::npos);
}

TEST_F(CliTest, BadStageModeRejected) {
  const auto r = invoke({"run", "--network", path("figure1.topo"), "--program",
                         path("running_example.lai"), "--stage", "yolo"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("availability"), std::string::npos);
}


TEST_F(CliTest, ReachVerdictsPerPacketAndSummary) {
  // Traffic 2 reaches D:3 via p0 even though p2 denies it.
  auto r = invoke({"reach", "--network", path("figure1.topo"), "--from", "A:1", "--to", "D:3",
                   "--packet", "dst 2.0.0.1"});
  EXPECT_EQ(r.code, 0) << r.out;
  EXPECT_NE(r.out.find("reachable"), std::string::npos);
  EXPECT_NE(r.out.find("denied"), std::string::npos);   // p2
  EXPECT_NE(r.out.find("permitted"), std::string::npos);  // p0

  // Traffic 6 is denied at A:1 everywhere.
  r = invoke({"reach", "--network", path("figure1.topo"), "--from", "A:1", "--to", "C:3",
              "--packet", "dst 6.0.0.1"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.out.find("unreachable"), std::string::npos);

  // Summary mode: only 5/8 gets from A:1 to C:3.
  r = invoke({"reach", "--network", path("figure1.topo"), "--from", "A:1", "--to", "C:3"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("dst 5.0.0.0/8"), std::string::npos);

  // No path between two exits.
  r = invoke({"reach", "--network", path("figure1.topo"), "--from", "C:3", "--to", "D:3"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.out.find("no path"), std::string::npos);
}

TEST_F(CliTest, GenEmitsLoadableNetwork) {
  const auto r = invoke({"gen", "--size", "small", "--seed", "5"});
  ASSERT_EQ(r.code, 0) << r.err;
  std::ofstream file{dir_ / "gen.topo"};
  file << r.out;
  file.close();

  const auto audit = invoke({"audit", "--network", (dir_ / "gen.topo").string()});
  EXPECT_NE(audit.code, 2) << audit.err;  // parses and audits (warnings ok)
  const auto show = invoke({"show", "--network", (dir_ / "gen.topo").string()});
  EXPECT_EQ(show.code, 0);
  EXPECT_NE(show.out.find("devices: 8"), std::string::npos) << show.out;
}

TEST_F(CliTest, GenRejectsBadSize) {
  EXPECT_EQ(invoke({"gen", "--size", "galactic"}).code, 2);
}


TEST_F(CliTest, TraceShowsHopByHopVerdicts) {
  auto r = invoke({"trace", "--network", path("figure1.topo"), "--packet", "dst 2.0.0.1"});
  EXPECT_EQ(r.code, 0) << r.out;
  EXPECT_NE(r.out.find("rule 2 'deny dst 2.0.0.0/8' -> deny"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("=> DROPPED"), std::string::npos);
  EXPECT_NE(r.out.find("=> delivered"), std::string::npos);  // p0 delivers

  r = invoke({"trace", "--network", path("figure1.topo"), "--packet", "dst 6.0.0.1"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.out.find("dropped everywhere"), std::string::npos);

  EXPECT_EQ(invoke({"trace", "--network", path("figure1.topo")}).code, 2);  // no packet
}


TEST_F(CliTest, OutWritesReparsablePlan) {
  const auto plan_path = (dir_ / "plan.acl").string();
  const auto r = invoke({"run", "--network", path("figure1.topo"), "--program",
                         path("running_example.lai"), "--acl",
                         "A1_new=" + path("a1_new.acl"), "--acl",
                         "A3_new=" + path("a3_new.acl"), "--out", plan_path});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("plan written to"), std::string::npos);
  std::ifstream file{plan_path};
  ASSERT_TRUE(file.good());
  std::stringstream content;
  content << file.rdbuf();
  EXPECT_NE(content.str().find("acl A:1-in"), std::string::npos) << content.str();
  EXPECT_NE(content.str().find("end"), std::string::npos);
}


TEST_F(CliTest, DiffComparesAclsSemantically) {
  std::ofstream{dir_ / "x.acl"} << "deny dst 1.0.0.0/8\npermit all\n";
  std::ofstream{dir_ / "y.acl"} << "deny dst 1.0.0.0/9\ndeny dst 1.128.0.0/9\npermit all\n";
  std::ofstream{dir_ / "z.acl"} << "deny dst 1.0.0.0/9\npermit all\n";

  // x vs y: different rule lists, same semantics.
  auto r = invoke({"diff", "--acl-a", (dir_ / "x.acl").string(), "--acl-b",
                   (dir_ / "y.acl").string()});
  EXPECT_EQ(r.code, 0) << r.out;
  EXPECT_NE(r.out.find("equivalent"), std::string::npos);
  EXPECT_NE(r.out.find("- deny dst 1.0.0.0/8"), std::string::npos);
  EXPECT_NE(r.out.find("+ deny dst 1.0.0.0/9"), std::string::npos);

  // x vs z: z permits 1.128/9.
  r = invoke({"diff", "--acl-a", (dir_ / "x.acl").string(), "--acl-b",
              (dir_ / "z.acl").string()});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.out.find("NOT equivalent"), std::string::npos);
  EXPECT_NE(r.out.find("newly permits"), std::string::npos);

  EXPECT_EQ(invoke({"diff", "--acl-a", (dir_ / "x.acl").string()}).code, 2);
}


TEST_F(CliTest, TimeoutMsIsNotAnOption) {
  // No command queries a solver, so neither run nor serve takes a solver
  // deadline: the flag is a usage error naming it, before any work starts.
  const std::vector<std::vector<std::string>> commands = {
      {"run", "--network", path("figure1.topo"), "--program", path("running_example.lai"),
       "--acl", "A1_new=" + path("a1_new.acl"), "--acl", "A3_new=" + path("a3_new.acl")},
      {"serve", "--network", path("figure1.topo"), "--socket", path("timeout.sock")},
  };
  for (auto args : commands) {
    args.insert(args.end(), {"--timeout-ms", "5"});
    const auto r = invoke(args);
    EXPECT_EQ(r.code, 2) << args[0];
    EXPECT_NE(r.err.find("--timeout-ms"), std::string::npos) << r.err;
    EXPECT_TRUE(r.out.empty()) << r.out;
  }
}

TEST_F(CliTest, FlagValidationSweep) {
  // Every malformed flag value is a usage error: exit 2, a one-line
  // "error:" diagnostic naming the flag, and no partial run on stdout.
  struct Case {
    std::vector<std::string> args;
    const char* needle;  // must appear in the first stderr line
  };
  const std::vector<Case> cases = {
      {{"run", "--network", path("figure1.topo"), "--program", path("running_example.lai"),
        "--threads", "abc"}, "--threads"},
      {{"run", "--network", path("figure1.topo"), "--program", path("running_example.lai"),
        "--threads", "0"}, "--threads"},
      {{"run", "--network", path("figure1.topo"), "--program", path("running_example.lai"),
        "--threads", "-3"}, "--threads"},
      {{"run", "--network", path("figure1.topo"), "--program", path("running_example.lai"),
        "--threads", "2048"}, "--threads"},
      {{"gen", "--size", "small", "--seed", "abc"}, "--seed"},
      {{"gen", "--size", "small", "--seed", "-1"}, "--seed"},
      {{"gen", "--size", "small", "--seed", "12moments"}, "--seed"},
      {{"serve", "--network", path("figure1.topo"), "--socket", "/tmp/x.sock",
        "--queue-depth", "0"}, "--queue-depth"},
      {{"serve", "--network", path("figure1.topo"), "--socket", "/tmp/x.sock",
        "--workers", "lots"}, "--workers"},
      {{"serve", "--network", path("figure1.topo"), "--socket", "/tmp/x.sock",
        "--keep-versions", "-2"}, "--keep-versions"},
      {{"serve", "--network", path("figure1.topo"), "--socket", "/tmp/x.sock",
        "--retain-jobs", "abc"}, "--retain-jobs"},
      {{"serve", "--network", path("figure1.topo"), "--socket", "/tmp/x.sock",
        "--retain-jobs", "0"}, "--retain-jobs"},
      {{"serve", "--network", path("figure1.topo")}, "--socket"},
      {{"client", "--socket", "/tmp/x.sock", "submit", "--deadline-ms", "0"}, "--deadline-ms"},
      {{"client", "--socket", "/tmp/x.sock", "submit", "--priority", "urgent"}, "--priority"},
      {{"client", "--socket", "/tmp/x.sock", "result", "--job", "1.5"}, "--job"},
      {{"client", "--socket", "/tmp/x.sock", "result", "--job", "1", "--wait-ms", "abc"},
       "--wait-ms"},
      {{"client", "--socket", "/tmp/x.sock", "submit", "--snapshot", "-1"}, "--snapshot"},
      {{"client", "--socket", "/tmp/x.sock", "frobnicate"}, "unknown client method"},
      {{"client", "--socket", "/tmp/x.sock", "status"}, "--job"},
      {{"client", "status", "--job", "1"}, "--socket"},
      {{"client", "--socket", "/tmp/x.sock", "submit"}, "--program"},
      {{"client", "--socket", "/tmp/x.sock"}, "METHOD"},
      {{"run", "--network", path("figure1.topo"), "--program", path("running_example.lai"),
        "--bogus-flag"}, "unknown option"},
      {{"run", "--network", path("figure1.topo"), "--program", path("running_example.lai"),
        "--set-backend", "bdd"}, "unknown option"},
      {{"run", "--network", path("figure1.topo"), "--program", path("running_example.lai"),
        "--no-incremental-smt"}, "unknown option"},
      {{"frobnicate"}, "unknown command"},
  };
  for (const auto& test_case : cases) {
    const auto r = invoke(test_case.args);
    EXPECT_EQ(r.code, 2) << test_case.needle << ": " << r.err;
    EXPECT_TRUE(r.out.empty()) << test_case.needle << " produced output:\n" << r.out;
    const auto first_line = r.err.substr(0, r.err.find('\n'));
    EXPECT_NE(first_line.find(test_case.needle), std::string::npos)
        << "stderr first line '" << first_line << "' lacks '" << test_case.needle << "'";
  }
}

TEST_F(CliTest, ClientConnectFailureIsAnError) {
  const auto r = invoke({"client", "--socket", "/tmp/jinjing_no_such_socket.sock", "info"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("connect"), std::string::npos) << r.err;
}

TEST_F(CliTest, ReportJsonEmitsPipelineBreakdown) {
  const auto report_path = (dir_ / "report.json").string();
  const auto r = invoke({"run", "--network", path("figure1.topo"), "--program",
                         path("running_example.lai"), "--acl",
                         "A1_new=" + path("a1_new.acl"), "--acl",
                         "A3_new=" + path("a3_new.acl"), "--report-json", report_path});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("report written to"), std::string::npos);

  std::ifstream file{report_path};
  ASSERT_TRUE(file.good());
  std::stringstream content;
  content << file.rdbuf();
  const auto json = content.str();

  // One entry per command (check; fix), with the per-stage breakdown.
  for (const char* key :
       {"\"commands\"", "\"command\": \"check\"", "\"command\": \"fix\"", "\"obligations\"",
        "\"executed\"", "\"cancelled\"", "\"obligations_skipped\"", "\"plan_seconds\"",
        "\"compile_seconds\"", "\"solve_seconds\"", "\"execute_seconds\"", "\"smt_queries\"",
        "\"totals\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key << " in:\n" << json;
  }

  // An unwritable path is a runtime error, not silent success.
  const auto bad = invoke({"run", "--network", path("figure1.topo"), "--program",
                           path("running_example.lai"), "--acl",
                           "A1_new=" + path("a1_new.acl"), "--acl",
                           "A3_new=" + path("a3_new.acl"), "--report-json",
                           (dir_ / "no_such_dir" / "report.json").string()});
  EXPECT_NE(bad.code, 0);
}

TEST_F(CliTest, ReportJsonEmbedsObservabilityCounters) {
  const auto report_path = (dir_ / "report.json").string();
  const auto r = invoke({"run", "--network", path("figure1.topo"), "--program",
                         path("running_example.lai"), "--acl",
                         "A1_new=" + path("a1_new.acl"), "--acl",
                         "A3_new=" + path("a3_new.acl"), "--report-json", report_path});
  ASSERT_EQ(r.code, 0) << r.err;

  std::ifstream file{report_path};
  std::stringstream content;
  content << file.rdbuf();
  const auto json = content.str();

  EXPECT_NE(json.find("\"observability\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  // The pipeline ran: the plan and scan counters must be nonzero, and no
  // stage issued an SMT query.
  const std::string counters = json.substr(json.find("\"observability\""));
  for (const char* key : {"\"plan_builds\": 0", "\"obligations_planned\": 0",
                          "\"obligations_executed\": 0"}) {
    EXPECT_EQ(counters.find(key), std::string::npos) << "zero counter " << key;
  }
  for (const char* key : {"\"smt_queries\": 0,", "\"smt_sessions_built\": 0,",
                          "\"smt_optimize_queries\": 0,"}) {
    EXPECT_NE(counters.find(key), std::string::npos) << "nonzero counter " << key << ":\n"
                                                     << counters;
  }
}

TEST_F(CliTest, MetricsWritesPrometheusText) {
  const auto metrics_path = (dir_ / "metrics.prom").string();
  const auto r = invoke({"run", "--network", path("figure1.topo"), "--program",
                         path("running_example.lai"), "--acl",
                         "A1_new=" + path("a1_new.acl"), "--acl",
                         "A3_new=" + path("a3_new.acl"), "--metrics", metrics_path});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("metrics written to"), std::string::npos);

  std::ifstream file{metrics_path};
  ASSERT_TRUE(file.good());
  std::stringstream content;
  content << file.rdbuf();
  const auto text = content.str();
  // The pipeline ran on the plan and the scan, without one SMT query.
  for (const char* nonzero : {"jinjing_plan_builds_total 0\n",
                              "jinjing_obligations_executed_total 0\n"}) {
    EXPECT_EQ(text.find(nonzero), std::string::npos) << nonzero << "in:\n" << text;
  }
  EXPECT_NE(text.find("# TYPE jinjing_smt_queries_total counter\njinjing_smt_queries_total 0\n"),
            std::string::npos)
      << "the running example must issue no SMT query:\n" << text;
  EXPECT_NE(text.find("jinjing_smt_solve_micros_bucket{le=\"+Inf\"}"), std::string::npos);
  EXPECT_NE(text.find("# TYPE jinjing_svc_cached_obligations gauge"), std::string::npos);
}

TEST_F(CliTest, TraceWritesChromeTraceJson) {
  const auto trace_path = (dir_ / "trace.json").string();
  const auto r = invoke({"run", "--network", path("figure1.topo"), "--program",
                         path("running_example.lai"), "--acl",
                         "A1_new=" + path("a1_new.acl"), "--acl",
                         "A3_new=" + path("a3_new.acl"), "--trace", trace_path});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("trace written to"), std::string::npos);

  std::ifstream file{trace_path};
  ASSERT_TRUE(file.good());
  std::stringstream content;
  content << file.rdbuf();
  const auto text = content.str();
  EXPECT_EQ(text.find("{\"displayTimeUnit\": \"ms\", \"traceEvents\": ["), 0u);
  for (const char* span : {"\"engine.check\"", "\"engine.fix\"", "\"checker.plan\"",
                           "\"fix.search\"", "\"fix.place\""}) {
    EXPECT_NE(text.find(span), std::string::npos) << "missing span " << span;
  }
  for (const char* span : {"\"checker.compile\"", "\"smt.query\"", "\"smt.optimize\""}) {
    EXPECT_EQ(text.find(span), std::string::npos) << "SMT span " << span;
  }
  EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
}

TEST_F(CliTest, UnwritableExportPathsAreErrors) {
  const auto base = std::vector<std::string>{"run", "--network", path("figure1.topo"),
                                             "--program", path("running_example.lai"), "--acl",
                                             "A1_new=" + path("a1_new.acl"), "--acl",
                                             "A3_new=" + path("a3_new.acl")};
  const auto bad_path = (dir_ / "no_such_dir" / "out.file").string();
  for (const char* flag : {"--report-json", "--metrics", "--trace", "--out"}) {
    auto args = base;
    args.push_back(flag);
    args.push_back(bad_path);
    const auto r = invoke(args);
    EXPECT_EQ(r.code, 2) << flag;
    EXPECT_NE(r.err.find("cannot write"), std::string::npos) << flag << ": " << r.err;
    EXPECT_EQ(r.out.find("written to"), std::string::npos)
        << flag << " claimed success:\n" << r.out;
  }
}

}  // namespace
}  // namespace jinjing::cli
