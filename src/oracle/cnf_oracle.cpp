#include "oracle/cnf_oracle.hpp"

#include "gf2/gauss.hpp"
#include "obs/metrics.hpp"
#include "sat/tseitin.hpp"

namespace mcf0 {

namespace {

// The paper's Observation 2 accounting, surfaced uniformly: every SAT
// invocation counts once, with its latency. Resolved once per process.
struct OracleObs {
  obs::Counter* calls;
  obs::Histogram* solve_us;
};

OracleObs& Obs() {
  static OracleObs obs{
      obs::Registry::Global().GetCounter("mcf0_oracle_sat_calls_total"),
      obs::Registry::Global().GetHistogram("mcf0_oracle_sat_solve_us")};
  return obs;
}

}  // namespace

std::vector<XorConstraint> HashPrefixConstraints(const AffineHash& h, int m) {
  MCF0_CHECK(m >= 0 && m <= h.m());
  std::vector<XorConstraint> xors;
  xors.reserve(m);
  for (int i = 0; i < m; ++i) {
    // Bit i of h(x) = A_i.x XOR b_i; forcing it to 0 means A_i.x = b_i.
    xors.push_back(XorConstraint{h.Row(i), h.b().Get(i)});
  }
  return xors;
}

std::vector<XorConstraint> HashSuffixZeroConstraints(const AffineHash& h,
                                                     int t) {
  MCF0_CHECK(t >= 0 && t <= h.m());
  std::vector<XorConstraint> xors;
  xors.reserve(t);
  for (int i = h.m() - t; i < h.m(); ++i) {
    xors.push_back(XorConstraint{h.Row(i), h.b().Get(i)});
  }
  return xors;
}

bool CnfOracle::BuildSolver(sat::Solver* solver,
                            const std::vector<XorConstraint>& xors,
                            const std::vector<BitVec>& blocked) {
  const int n = cnf_->num_vars();
  solver->EnsureVars(n);
  for (const Clause& c : cnf_->clauses()) {
    std::vector<sat::Lit> lits;
    lits.reserve(c.lits().size());
    for (const Lit& l : c.lits()) lits.emplace_back(l.var, l.neg);
    if (!solver->AddClause(std::move(lits))) return false;
  }
  if (use_tseitin_) {
    for (const XorConstraint& xc : xors) {
      MCF0_CHECK(xc.row.size() == n);
      std::vector<sat::Var> vars;
      for (int j = 0; j < n; ++j) {
        if (xc.row.Get(j)) vars.push_back(j);
      }
      if (!sat::AddXorAsCnf(solver, std::move(vars), xc.rhs)) return false;
    }
  } else if (!xors.empty()) {
    // Native path: row-reduce the parity system first and hand the solver
    // the equivalent RREF rows, then restrict branching to the free
    // (non-pivot) variables. Once every free variable in a row is
    // assigned, the row is unit on its pivot and propagates, so the
    // effective search space is 2^(free variables of the CNF) instead of
    // 2^n — the role Gaussian elimination plays in CNF-XOR solvers.
    Gf2Eliminator elim(n);
    for (const XorConstraint& xc : xors) {
      MCF0_CHECK(xc.row.size() == n);
      if (elim.AddEquation(xc.row, xc.rhs) == AddResult::kInconsistent) {
        return false;
      }
    }
    for (size_t r = 0; r < elim.rows().size(); ++r) {
      std::vector<sat::Var> vars;
      for (int j = 0; j < n; ++j) {
        if (elim.rows()[r].Get(j)) vars.push_back(j);
      }
      if (!solver->AddXorClause(std::move(vars), elim.rhs()[r])) return false;
    }
    std::vector<bool> is_pivot(n, false);
    for (const int p : elim.pivot_cols()) is_pivot[p] = true;
    std::vector<sat::Var> decision_vars;
    for (int j = 0; j < n; ++j) {
      if (!is_pivot[j]) decision_vars.push_back(j);
    }
    solver->RestrictDecisions(decision_vars);
  }
  for (const BitVec& sol : blocked) {
    MCF0_CHECK(sol.size() == n);
    std::vector<sat::Lit> clause;
    clause.reserve(n);
    for (int j = 0; j < n; ++j) clause.emplace_back(j, sol.Get(j));
    if (!solver->AddClause(std::move(clause))) return false;
  }
  return true;
}

std::optional<BitVec> CnfOracle::Solve(const std::vector<XorConstraint>& xors,
                                       const std::vector<BitVec>& blocked) {
  ++num_calls_;
  Obs().calls->Increment();
  sat::Solver solver;
  if (!BuildSolver(&solver, xors, blocked)) return std::nullopt;
  obs::ScopedLatencyUs solve_timer(Obs().solve_us);
  if (solver.Solve() != sat::LBool::kTrue) return std::nullopt;
  return solver.ModelBits(cnf_->num_vars());
}

std::vector<BitVec> CnfOracle::Enumerate(const std::vector<XorConstraint>& xors,
                                         uint64_t limit) {
  std::vector<BitVec> solutions;
  sat::Solver solver;
  if (!BuildSolver(&solver, xors, {})) return solutions;
  const int n = cnf_->num_vars();
  while (solutions.size() < limit) {
    ++num_calls_;
    Obs().calls->Increment();
    sat::LBool verdict;
    {
      obs::ScopedLatencyUs solve_timer(Obs().solve_us);
      verdict = solver.Solve();
    }
    if (verdict != sat::LBool::kTrue) break;
    BitVec model = solver.ModelBits(n);
    // Block this assignment (over the formula's variables only, so
    // Tseitin auxiliaries do not cause duplicates).
    std::vector<sat::Lit> clause;
    clause.reserve(n);
    for (int j = 0; j < n; ++j) clause.emplace_back(j, model.Get(j));
    solutions.push_back(std::move(model));
    if (!solver.AddClause(std::move(clause))) break;
  }
  return solutions;
}

}  // namespace mcf0
