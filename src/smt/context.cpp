#include "smt/context.h"

#include <chrono>

#include "obs/stats.h"
#include "obs/trace.h"

namespace jinjing::smt {

namespace {

std::array<z3::expr, net::kNumFields> make_fields(z3::context& ctx, const std::string& prefix) {
  return {
      ctx.bv_const((prefix + "_sip").c_str(), net::field_bits(net::Field::SrcIp)),
      ctx.bv_const((prefix + "_dip").c_str(), net::field_bits(net::Field::DstIp)),
      ctx.bv_const((prefix + "_sport").c_str(), net::field_bits(net::Field::SrcPort)),
      ctx.bv_const((prefix + "_dport").c_str(), net::field_bits(net::Field::DstPort)),
      ctx.bv_const((prefix + "_proto").c_str(), net::field_bits(net::Field::Proto)),
  };
}

}  // namespace

PacketVars::PacketVars(z3::context& ctx, const std::string& prefix)
    : fields_(make_fields(ctx, prefix)) {}

z3::solver SmtContext::make_solver() {
  z3::solver solver{ctx()};
  if (timeout_ms_ > 0) {
    z3::params params{ctx()};
    params.set("timeout", timeout_ms_);
    solver.set(params);
  }
  return solver;
}

z3::optimize SmtContext::make_optimize() {
  z3::optimize opt{ctx()};
  if (timeout_ms_ > 0) {
    z3::params params{ctx()};
    params.set("timeout", timeout_ms_);
    opt.set(params);
  }
  return opt;
}

net::Packet SmtContext::extract_packet(const z3::model& model, const PacketVars& vars) {
  net::Packet p;
  for (const net::Field f : net::kAllFields) {
    const z3::expr value = model.eval(vars.field(f), /*model_completion=*/true);
    p.set_field(f, value.get_numeral_uint64());
  }
  return p;
}

std::optional<net::Packet> SmtContext::solve_for_packet(z3::solver& solver,
                                                        const PacketVars& vars) {
  ++query_count_;
  obs::count(obs::Counter::SmtQueries);
  const auto start = std::chrono::steady_clock::now();
  z3::check_result result;
  {
    obs::TraceSpan span{obs::Span::SmtQuery};
    result = solver.check();
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  solve_seconds_ += elapsed;
  obs::observe(obs::Histogram::SmtSolveMicros,
               static_cast<std::uint64_t>(elapsed * 1e6));
  accumulate_stats(solver.statistics());
  if (result == z3::unknown) {
    obs::count(obs::Counter::SmtTimeouts);
    throw SmtTimeout("SMT query returned unknown (" + solver.reason_unknown() + ")");
  }
  if (result != z3::sat) return std::nullopt;
  return extract_packet(solver.get_model(), vars);
}

std::optional<z3::model> SmtContext::check_optimize(z3::optimize& opt) {
  ++query_count_;
  obs::count(obs::Counter::SmtQueries);
  obs::count(obs::Counter::SmtOptimizeQueries);
  const auto start = std::chrono::steady_clock::now();
  z3::check_result result;
  {
    obs::TraceSpan span{obs::Span::SmtOptimize};
    result = opt.check();
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  solve_seconds_ += elapsed;
  obs::observe(obs::Histogram::SmtSolveMicros,
               static_cast<std::uint64_t>(elapsed * 1e6));
  accumulate_stats(opt.statistics());
  if (result == z3::unknown) {
    obs::count(obs::Counter::SmtTimeouts);
    throw SmtTimeout("SMT optimize query returned unknown (deadline exceeded?)");
  }
  if (result != z3::sat) return std::nullopt;
  return opt.get_model();
}

std::uint64_t SmtContext::statistic(const std::string& key) const {
  const auto it = stat_totals_.find(key);
  return it == stat_totals_.end() ? 0 : it->second;
}

void SmtContext::accumulate_stats(const z3::stats& stats) {
  for (unsigned i = 0; i < stats.size(); ++i) {
    const std::string key = stats.key(i);
    const std::uint64_t value = stats.is_uint(i) ? stats.uint_value(i)
                                                 : static_cast<std::uint64_t>(stats.double_value(i));
    stat_totals_[key] += value;
  }
}

}  // namespace jinjing::smt
