"""Thin solver-agnostic layer over the HiGHS solvers that scipy ships.

ModelBuilder accumulates variables and sparse linear constraints;
``assemble()`` turns them into a LinearProgram, the column-wise arrays
HiGHS takes.  solve() hands a model to scipy.optimize.milp.  The
continuous solves -- solve_lp() and the pricing pass fix_and_relax_duals(),
which fixes every integer variable at its incumbent value, relaxes
integrality and re-solves -- pass the arrays straight to a HiGHS object
from scipy's vendored bindings and read the primal values and row duals
back.  A caller that solves many LPs differing only in bounds and
right-hand sides assembles once and swaps the numbers with
``LinearProgram.with_numbers``.

Dual sign convention, used everywhere downstream: for a minimization,
duals of ">= rhs" and "<= rhs" rows are reported nonnegative when binding;
duals of "= rhs" rows are the signed sensitivity d(objective)/d(rhs).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint
# linprog is no longer called here; it stays a module attribute because
# perfbench/tracer.py wraps milp.linprog by name.
from scipy.optimize import linprog  # noqa: F401
from scipy.optimize import milp as _scipy_milp
from scipy.optimize._highspy import _core as _highs

LE, GE, EQ = "<=", ">=", "="

DEFAULT_GAP = 1e-6
FEASIBILITY_TOL = 1e-6


class BackendError(Exception):
    """Solver crashed or returned an unrecognized status."""


class RelaxationInfeasible(Exception):
    """Fixed-binary LP infeasible; indicates numerical trouble upstream."""


@dataclass
class Solution:
    status: str  # "optimal" | "infeasible" | "unbounded" | "time_limit" | "failed"
    objective_value: float
    x: np.ndarray

    @property
    def optimal(self):
        return self.status == "optimal"


@dataclass(eq=False)
class LinearProgram:
    """An assembled minimization model, in the arrays HiGHS takes.

    min c'x  s.t.  A x (sense) rhs row by row,  lb <= x <= ub,
    with ``A`` in CSC form and ``integer`` marking integer columns.
    """

    c: np.ndarray
    a: sp.csc_matrix
    sense: np.ndarray  # per row: LE, GE or EQ
    rhs: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integer: np.ndarray  # bool per column

    def __post_init__(self):
        m, n = self.a.shape
        if self.c.shape != (n,) or self.lb.shape != (n,) or self.ub.shape != (n,):
            raise ValueError("objective or bounds do not match the matrix columns")
        if self.rhs.shape != (m,) or self.sense.shape != (m,):
            raise ValueError("right-hand sides do not match the matrix rows")

    @property
    def n_vars(self):
        return self.a.shape[1]

    def row_bounds(self):
        lo = np.where(self.sense == LE, -np.inf, self.rhs)
        hi = np.where(self.sense == GE, np.inf, self.rhs)
        return lo, hi

    def with_numbers(self, rhs=None, lb=None, ub=None):
        """Same matrix, objective and senses with new right-hand sides/bounds."""
        return replace(
            self,
            rhs=self.rhs if rhs is None else np.asarray(rhs, dtype=float),
            lb=self.lb if lb is None else np.asarray(lb, dtype=float),
            ub=self.ub if ub is None else np.asarray(ub, dtype=float))


class ModelBuilder:
    """Incrementally built linear/mixed-integer minimization model.

    Variable and constraint handles are dense integer indices, stable for
    the life of the builder.  Constraints can be appended one at a time or
    as vectorized blocks of COO triplets, which is what the market models
    use to stay fast at hundreds of thousands of rows.
    """

    def __init__(self):
        self._lb = []
        self._ub = []
        self._integer = []
        self._obj_chunks = []  # (var_idx_array, coef_array)
        self._row_i = []  # per-block local row offsets already globalized
        self._col_j = []
        self._vals = []
        self._sense = []
        self._rhs = []
        self._n_rows = 0

    # -- variables ----------------------------------------------------

    @property
    def n_vars(self):
        return len(self._lb)

    @property
    def n_constrs(self):
        return self._n_rows

    def add_var(self, lb=0.0, ub=np.inf, integer=False):
        self._lb.append(lb)
        self._ub.append(ub)
        self._integer.append(bool(integer))
        return len(self._lb) - 1

    def add_binary(self):
        return self.add_var(0.0, 1.0, integer=True)

    def add_vars(self, count, lb=0.0, ub=np.inf, integer=False):
        """Block of ``count`` variables; returns an index array.

        ``lb``/``ub`` may be scalars or arrays of length ``count``.
        """
        start = len(self._lb)
        self._lb.extend(np.broadcast_to(lb, (count,)).tolist())
        self._ub.extend(np.broadcast_to(ub, (count,)).tolist())
        self._integer.extend([bool(integer)] * count)
        return np.arange(start, start + count)

    def set_var_bounds(self, idx, lb, ub):
        for i, lo, hi in zip(np.atleast_1d(idx),
                             np.broadcast_to(lb, np.shape(np.atleast_1d(idx))),
                             np.broadcast_to(ub, np.shape(np.atleast_1d(idx)))):
            self._lb[i] = lo
            self._ub[i] = hi

    # -- constraints --------------------------------------------------

    def add_constr(self, var_idx, coefs, sense, rhs):
        """Single row: sum(coefs * x[var_idx]) <sense> rhs.  Returns handle."""
        var_idx = np.asarray(var_idx, dtype=np.int64).ravel()
        coefs = np.asarray(coefs, dtype=float).ravel()
        return int(self.add_constr_block(
            np.zeros(var_idx.size, dtype=np.int64), var_idx, coefs,
            [sense], [rhs])[0])

    def add_constr_block(self, local_rows, cols, vals, senses, rhs):
        """Append a block of rows given as COO triplets.

        ``local_rows`` is 0-based within the block; ``senses`` and ``rhs``
        have one entry per block row.  Returns the handle array.
        """
        local_rows = np.asarray(local_rows, dtype=np.int64)
        senses = list(senses)
        rhs = np.asarray(rhs, dtype=float)
        if rhs.size != len(senses):
            raise ValueError("senses and rhs length mismatch")
        cols = np.asarray(cols, dtype=np.int64)
        if cols.size and cols.max() >= self.n_vars:
            raise ValueError("constraint references unregistered variable")
        self._row_i.append(local_rows + self._n_rows)
        self._col_j.append(cols)
        self._vals.append(np.asarray(vals, dtype=float))
        self._sense.extend(senses)
        self._rhs.append(rhs)
        handles = np.arange(self._n_rows, self._n_rows + rhs.size)
        self._n_rows += rhs.size
        return handles

    def add_objective_terms(self, var_idx, coefs):
        """Accumulate linear objective terms (minimization)."""
        self._obj_chunks.append((np.asarray(var_idx, dtype=np.int64).ravel(),
                                 np.asarray(coefs, dtype=float).ravel()))

    # -- assembly -----------------------------------------------------

    def assemble(self):
        """The model as a LinearProgram (a snapshot: later edits don't show)."""
        n = self.n_vars
        if self._row_i:
            rows = np.concatenate(self._row_i)
            cols = np.concatenate(self._col_j)
            vals = np.concatenate(self._vals)
        else:
            rows = cols = np.zeros(0, dtype=np.int64)
            vals = np.zeros(0)
        a = sp.csc_matrix((vals, (rows, cols)), shape=(self._n_rows, n))
        c = np.zeros(n)
        for idx, coef in self._obj_chunks:
            np.add.at(c, idx, coef)
        return LinearProgram(
            c=c, a=a, sense=np.array(self._sense, dtype="<U2"),
            rhs=np.concatenate(self._rhs) if self._rhs else np.zeros(0),
            lb=np.array(self._lb, dtype=float), ub=np.array(self._ub, dtype=float),
            integer=np.array(self._integer, dtype=bool))


def _assembled(model):
    return model.assemble() if isinstance(model, ModelBuilder) else model


def _milp_status(code):
    return {0: "optimal", 1: "time_limit", 2: "infeasible", 3: "unbounded"}.get(code, "failed")


def solve(model, gap=DEFAULT_GAP, time_limit=None):
    """Solve a ModelBuilder or LinearProgram as a MILP (HiGHS via scipy).

    Status is reported truthfully.
    """
    lp = _assembled(model)
    lo, hi = lp.row_bounds()
    constraints = [LinearConstraint(lp.a, lo, hi)] if lp.a.shape[0] else []
    options = {"mip_rel_gap": gap, "presolve": True}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    try:
        res = _scipy_milp(
            c=lp.c,
            constraints=constraints,
            integrality=lp.integer.astype(np.uint8),
            bounds=Bounds(lp.lb, lp.ub),
            options=options,
        )
    except Exception as exc:  # pragma: no cover - backend crash path
        raise BackendError(str(exc)) from exc
    status = _milp_status(res.status)
    x = res.x if res.x is not None else np.full(lp.n_vars, np.nan)
    obj = float(res.fun) if res.fun is not None else np.nan
    return Solution(status=status, objective_value=obj, x=x)


# The options scipy's linprog(method="highs") passes, so that the direct
# path walks the same dual simplex; logging off.
_LP_OPTIONS = (
    ("output_flag", False), ("log_to_console", False), ("presolve", "on"),
    ("simplex_strategy",
     int(_highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)))

_LP_STATUS = {
    _highs.HighsModelStatus.kOptimal: "optimal",
    _highs.HighsModelStatus.kTimeLimit: "time_limit",
    _highs.HighsModelStatus.kIterationLimit: "time_limit",
    _highs.HighsModelStatus.kInfeasible: "infeasible",
    _highs.HighsModelStatus.kUnbounded: "unbounded",
}


def _solve_continuous(lp):
    """One continuous solve of ``lp`` in a fresh HiGHS object, so that no
    basis carries over from an earlier solve; integrality is ignored.

    Returns (Solution, dual array per row) with the module's sign
    convention: HiGHS reports row duals as d(objective)/d(bound), which is
    nonpositive on a binding "<=" row of a minimization, so those are
    negated; ">=" and "=" rows pass through.
    """
    a = lp.a
    m, n = a.shape
    lo, hi = lp.row_bounds()
    h = _highs._Highs()
    for key, value in _LP_OPTIONS:
        h.setOptionValue(key, value)
    passed = h.passModel(
        n, m, a.nnz, int(_highs.MatrixFormat.kColwise),
        int(_highs.ObjSense.kMinimize), 0.0, lp.c, lp.lb, lp.ub, lo, hi,
        a.indptr, a.indices, a.data, np.zeros(n, dtype=np.int32))  # all continuous
    if passed == _highs.HighsStatus.kError or h.run() == _highs.HighsStatus.kError:
        status = "failed"
    else:
        status = _LP_STATUS.get(h.getModelStatus(), "failed")
    if status != "optimal":
        return Solution(status=status, objective_value=np.nan,
                        x=np.full(n, np.nan)), np.zeros(m)
    s = h.getSolution()
    duals = np.array(s.row_dual)
    duals[lp.sense == LE] *= -1.0
    sol = Solution(status=status, objective_value=h.getInfo().objective_function_value,
                   x=np.array(s.col_value))
    return sol, duals


def solve_lp(model):
    """Solve a purely continuous model; returns (Solution, dual per row).

    ``model`` is a ModelBuilder or a LinearProgram; the duals are indexed
    by constraint handle.
    """
    sol, duals = _solve_continuous(_assembled(model))
    if not sol.optimal:
        raise RelaxationInfeasible(f"LP solve ended with status {sol.status}")
    return sol, duals


def fix_and_relax_duals(model, milp_solution, rel_tol=1e-5):
    """Pricing pass: freeze integers at their incumbent values, solve the LP.

    Returns (lp_solution, dual per row).  The LP objective must agree with
    the MILP objective; a large discrepancy or an infeasible LP is raised
    as RelaxationInfeasible since fixing to a feasible MILP point cannot
    legitimately cut off the incumbent.  Pass the LinearProgram the MILP
    was solved from to skip a second assembly.
    """
    if not milp_solution.optimal:
        raise ValueError("fix_and_relax_duals requires an optimal MILP solution")
    lp = _assembled(model)
    lb, ub = lp.lb.copy(), lp.ub.copy()
    fixed = np.round(milp_solution.x[lp.integer])
    lb[lp.integer] = fixed
    ub[lp.integer] = fixed
    sol, duals = _solve_continuous(lp.with_numbers(lb=lb, ub=ub))
    if not sol.optimal:
        raise RelaxationInfeasible(f"fixed-integer LP status {sol.status}")
    scale = 1.0 + abs(milp_solution.objective_value)
    if abs(sol.objective_value - milp_solution.objective_value) > rel_tol * scale:
        raise RelaxationInfeasible(
            f"LP objective {sol.objective_value} drifted from MILP "
            f"objective {milp_solution.objective_value}"
        )
    return sol, duals
