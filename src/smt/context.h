// RAII wrapper around the Z3 C++ API: packet-header variables, solver
// construction, model extraction, and solver statistics.
//
// All SMT reasoning in Jinjing quantifies over one symbolic packet header h
// (the paper's 104-bit boolean vector), represented as five bitvector
// variables of the field widths in net::kFieldBits.
#pragma once

#include <z3++.h>

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "net/packet.h"

namespace jinjing::smt {

/// Thrown when a solver query comes back `unknown` — with a per-query
/// deadline configured that means the deadline fired. An unknown can never
/// be treated as "no violation" (that would be unsound), so it surfaces as
/// an error the caller must handle.
class SmtTimeout : public std::runtime_error {
 public:
  explicit SmtTimeout(const std::string& what) : std::runtime_error(what) {}
};

/// The five symbolic header fields of one packet variable h.
class PacketVars {
 public:
  PacketVars(z3::context& ctx, const std::string& prefix);

  [[nodiscard]] const z3::expr& field(net::Field f) const {
    return fields_[static_cast<std::size_t>(f)];
  }

 private:
  std::array<z3::expr, net::kNumFields> fields_;
};

/// Owns the z3::context and provides solver helpers. Not thread-safe (Z3
/// contexts are single-threaded); create one per worker. The z3::context is
/// created on first use, so a holder that never queries pays nothing.
class SmtContext {
 public:
  SmtContext() = default;
  SmtContext(const SmtContext&) = delete;
  SmtContext& operator=(const SmtContext&) = delete;

  [[nodiscard]] z3::context& ctx() {
    if (!ctx_) ctx_ = std::make_unique<z3::context>();
    return *ctx_;
  }

  [[nodiscard]] PacketVars packet_vars(const std::string& prefix = "h") {
    return PacketVars{ctx(), prefix};
  }

  [[nodiscard]] z3::solver make_solver();
  [[nodiscard]] z3::optimize make_optimize();

  /// Per-query deadline applied to every solver/optimizer this context
  /// creates from now on. 0 (the default) = no deadline.
  void set_timeout_ms(unsigned ms) { timeout_ms_ = ms; }
  [[nodiscard]] unsigned timeout_ms() const { return timeout_ms_; }

  [[nodiscard]] z3::expr bool_val(bool b) { return ctx().bool_val(b); }

  /// Extracts the concrete packet a model assigns to `vars`.
  [[nodiscard]] net::Packet extract_packet(const z3::model& model, const PacketVars& vars);

  /// Cumulative count of solver queries issued through this context's
  /// helpers (a cheap work metric for the benchmarks).
  [[nodiscard]] std::uint64_t query_count() const { return query_count_; }

  /// Wall-clock seconds spent inside solver/optimizer check() calls.
  [[nodiscard]] double solve_seconds() const { return solve_seconds_; }

  /// Checks `solver`; on SAT returns the packet assigned to `vars`.
  [[nodiscard]] std::optional<net::Packet> solve_for_packet(z3::solver& solver,
                                                            const PacketVars& vars);

  /// Checks an optimize instance; on SAT returns its model.
  [[nodiscard]] std::optional<z3::model> check_optimize(z3::optimize& opt);

  /// Sum of the named statistic over all queries issued so far (e.g.
  /// "decisions" — the DPLL recursive-call proxy discussed in §9).
  [[nodiscard]] std::uint64_t statistic(const std::string& key) const;

 private:
  void accumulate_stats(const z3::stats& stats);

  std::unique_ptr<z3::context> ctx_;
  unsigned timeout_ms_ = 0;
  std::uint64_t query_count_ = 0;
  double solve_seconds_ = 0;
  std::unordered_map<std::string, std::uint64_t> stat_totals_;
};

}  // namespace jinjing::smt
