"""Meshless collocation for 1-D linear second-order boundary-value problems,
and its fusion with data fitting.

A problem is a(x) u'' + b(x) u' + c(x) u = g(x) on [x_lo, x_hi] with
Dirichlet or Neumann boundary conditions. The coefficient functions a, b,
c and g take the whole 1-D array of points and return an array of the same
shape or a scalar, which is broadcast; each is called once per array, never
once per point. A candidate solution is a linear combination of basis
functions; its pointwise defect at the collocation points is the residual
vector that the solvers drive toward zero.

Two fusion strategies are implemented on top of the shared residual
machinery (one assembly of the interior and boundary rows):

* ``penalized_fit`` minimizes the data MSE plus ``alpha_phys`` times the
  squared residuals (interior and boundary), a quadratic it solves in
  closed form; boundary conditions are only met approximately, ever more
  tightly as the weight grows.
* ``constrained_solve`` enforces the boundary rows exactly through Lagrange
  multipliers. It solves the KKT conditions by the null-space method: the
  boundary rows fix the weights' component in their row space, and the
  quadratic objective, interior residual included, is minimized over the
  rest, so the rows hold to rounding whatever the objective's scale.

``pinn_train`` applies the penalty strategy to a neural network whose
input derivatives are taken by central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import (
    NumericalError, ValidationError, as_integer, as_number, as_number_array, load_json_file,
    require_keys,
)
from .linear import BasisSpec, GaussianRBF, LinearModel, Polynomial, feature_matrix, ridge_solve
from .losses import MSE
from .network import MLP, _sweep, flatten_params, forward
from .optim import BatchSchedule, OptimizerState, train

# hard-constraint tolerance, relative to max(1, ||B||_F ||w|| + ||u_b||)
BC_RESIDUAL_RTOL = 1e-8


@dataclass(frozen=True)
class BoundaryCondition:
    location: float
    kind: str  # "dirichlet" (value of u) or "neumann" (value of u')
    value: float

    def __post_init__(self):
        if self.kind not in ("dirichlet", "neumann"):
            raise ValidationError(f"boundary kind must be dirichlet|neumann, got {self.kind!r}")


@dataclass(frozen=True)
class CollocationProblem:
    """Coefficients a, b, c and source g of a(x)u'' + b(x)u' + c(x)u = g(x)
    (callables from a 1-D point array to an array or a scalar), the domain,
    the boundary conditions, and (optionally) explicit interior collocation
    points. When the points are omitted, solvers default to 2 * n_basis
    equispaced interior points."""

    a: object
    b: object
    c: object
    source: object
    domain: tuple
    boundary: tuple
    collocation_points: np.ndarray | None = None

    def __post_init__(self):
        lo, hi = (float(v) for v in self.domain)
        if not lo < hi:
            raise ValidationError(f"domain must satisfy x_lo < x_hi, got [{lo}, {hi}]")
        bcs = tuple(self.boundary)
        if not bcs:
            raise ValidationError("at least one boundary condition is required")
        for i, bc in enumerate(bcs):
            if not lo <= bc.location <= hi:
                raise ValidationError(f"boundary condition {i} key 'location' {bc.location} "
                                      f"lies outside the domain [{lo}, {hi}]")
        pts = self.collocation_points
        if pts is not None:
            pts = np.array(pts, dtype=float, copy=True).ravel()
            if not pts.size:
                raise ValidationError("'collocation_points' must hold at least one point")
            if not ((pts > lo) & (pts < hi)).all():
                raise ValidationError("collocation points must lie strictly inside the domain")
            pts.setflags(write=False)
        object.__setattr__(self, "domain", (lo, hi))
        object.__setattr__(self, "boundary", bcs)
        object.__setattr__(self, "collocation_points", pts)

    def interior_points(self, n_basis: int) -> np.ndarray:
        if self.collocation_points is not None:
            return self.collocation_points
        lo, hi = self.domain
        return np.linspace(lo, hi, 2 * n_basis + 2)[1:-1]


@dataclass(frozen=True)
class ConstrainedSolution:
    """Weights, Lagrange multipliers and the achieved boundary defect."""

    weights: np.ndarray
    multipliers: np.ndarray
    constraint_residual_norm: float


def derivative_matrices(basis: BasisSpec, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Feature matrix and its first/second derivatives at scalar points x.

    Gaussian columns exp(-c^2 (x - xc)^2) differentiate to
    -2 c^2 (x - xc) phi and (4 c^4 (x - xc)^2 - 2 c^2) phi; polynomial
    columns differentiate power by power.
    """
    x = np.asarray(x, dtype=float).ravel()
    if isinstance(basis, GaussianRBF):
        if basis.centers.shape[1] != 1:
            raise ValidationError("derivative matrices require 1-D centers")
        d = x[:, None] - basis.centers[None, :, 0]
        c2 = basis.shapes**2
        phi = np.exp(-c2 * d * d)
        phi1 = -2.0 * c2 * d * phi
        phi2 = (4.0 * c2 * c2 * d * d - 2.0 * c2) * phi
        return phi, phi1, phi2
    if isinstance(basis, Polynomial):
        deg = basis.degree
        powers = np.arange(deg, -1, -1)  # highest power first
        phi = np.vander(x, deg + 1)
        phi1 = np.zeros_like(phi)
        phi2 = np.zeros_like(phi)
        for j, p in enumerate(powers):
            if p >= 1:
                phi1[:, j] = p * x ** (p - 1)
            if p >= 2:
                phi2[:, j] = p * (p - 1) * x ** (p - 2)
        return phi, phi1, phi2
    raise ValidationError(f"no derivative rule for basis {basis!r}")


def _coeffs_at(problem: CollocationProblem, x: np.ndarray):
    """a, b, c and g at the 1-D points x, one call each; scalars broadcast."""
    return tuple(np.broadcast_to(np.asarray(f(x), dtype=float), x.shape)
                 for f in (problem.a, problem.b, problem.c, problem.source))


def operator_matrix(problem: CollocationProblem, basis: BasisSpec, x):
    """Rows of the collocated differential operator, L = a phi'' + b phi' + c phi,
    together with the source samples g."""
    x = np.asarray(x, dtype=float).ravel()
    phi, phi1, phi2 = derivative_matrices(basis, x)
    a, b, c, g = _coeffs_at(problem, x)
    return a[:, None] * phi2 + b[:, None] * phi1 + c[:, None] * phi, g


def boundary_rows(problem: CollocationProblem, basis: BasisSpec):
    """Constraint rows B and values u_b: one row per boundary condition,
    the feature row for Dirichlet and the derivative row for Neumann."""
    bcs = problem.boundary
    phi, phi1, _ = derivative_matrices(basis, [bc.location for bc in bcs])
    dirichlet = np.array([bc.kind == "dirichlet" for bc in bcs])
    return np.where(dirichlet[:, None], phi, phi1), np.array([bc.value for bc in bcs], dtype=float)


def _collocation(problem: CollocationProblem, basis: BasisSpec):
    """The interior points x_c, the operator rows L and source g there, and
    the boundary rows B and values u_b: what both solvers assemble. A row
    with a non-finite entry (a coefficient near the float limit, say) is a
    NumericalError that names it, raised before any solver sees it."""
    x_c = problem.interior_points(basis.n_basis)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        (L, g), (B, u_b) = operator_matrix(problem, basis, x_c), boundary_rows(problem, basis)
    bad = []
    for what, ok in (("interior", np.isfinite(L).all(axis=1) & np.isfinite(g)),
                     ("boundary", np.isfinite(B).all(axis=1) & np.isfinite(u_b))):
        rows = np.flatnonzero(~ok)
        if rows.size:
            more = ", ..." if rows.size > 4 else ""
            bad.append(f"{what} rows {', '.join(map(str, rows[:4]))}{more} "
                       f"({rows.size} of {ok.size})")
    if bad:
        raise NumericalError(f"collocation {' and '.join(bad)} are not finite")
    return x_c, L, g, B, u_b


def pde_residual(problem: CollocationProblem, basis: BasisSpec, w) -> np.ndarray:
    """Pointwise defect L w - g at the problem's collocation points."""
    w = np.asarray(w, dtype=float).ravel()
    _, L, g, _, _ = _collocation(problem, basis)
    return L @ w - g


def _check_scalar_targets(d: Dataset | None):
    if d is not None and d.n_outputs != 1:
        raise ValidationError("physics-constrained fits support a single output column")
    if d is not None and d.n_inputs != 1:
        raise ValidationError("physics-constrained fits support 1-D inputs")


def physics_residual_norm(problem: CollocationProblem, basis: BasisSpec, w) -> float:
    """sqrt(mean squared interior residual + sum of squared boundary
    defects): the quantity the soft-constraint weight trades against the
    data error."""
    w = np.asarray(w, dtype=float).ravel()
    _, L, g, B, u_b = _collocation(problem, basis)
    r, bc = L @ w - g, B @ w - u_b
    return float(np.sqrt(np.sum(r * r) / r.size + np.sum(bc * bc)))


def penalized_fit(
    d: Dataset | None,
    problem: CollocationProblem,
    basis: BasisSpec,
    alpha_phys: float,
    alpha_reg: float = 0.0,
) -> LinearModel:
    """Quadratic data + physics fit with soft constraints.

    Minimizes

        mean squared data error
        + alpha_reg ||w||^2
        + alpha_phys * (mean squared interior residual
                        + sum of squared boundary defects)

    by stacking the scaled data rows, ridge rows, interior-residual rows and
    boundary rows into one augmented least-squares system (solved by SVD,
    which tolerates the severe conditioning of large physics weights).
    With alpha_phys = 0 and n_p data rows the minimizer coincides with
    ``ridge_fit`` at ridge alpha = n_p * alpha_reg (the data term here is a
    mean while the ridge normal equations use a sum).
    """
    if alpha_phys < 0:
        raise ValidationError(f"alpha_phys must be nonnegative, got {alpha_phys}")
    _check_scalar_targets(d)
    if alpha_reg < 0:
        raise ValidationError(f"alpha_reg must be nonnegative, got {alpha_reg}")
    n_b = basis.n_basis
    if alpha_phys == 0:
        # no physics rows left: this is ridge regression, solved by the same
        # normal-equations routine (note the mean-vs-sum alpha mapping)
        if d is not None:
            Phi = feature_matrix(basis, d.inputs)
            return LinearModel(basis, ridge_solve(Phi, d.targets[:, :1], d.n_points * alpha_reg))
        if alpha_reg > 0:
            return LinearModel(basis, np.zeros((n_b, 1)))
        raise ValidationError("need data rows, regularization, or a physics weight")
    blocks = []
    targets = []
    if d is not None:
        s = 1.0 / np.sqrt(d.n_points)
        blocks.append(s * feature_matrix(basis, d.inputs))
        targets.append(s * d.targets[:, 0])
    if alpha_reg > 0:
        blocks.append(np.sqrt(alpha_reg) * np.eye(n_b))
        targets.append(np.zeros(n_b))
    x_c, L, g, B, u_b = _collocation(problem, basis)
    s_int = np.sqrt(alpha_phys / x_c.size)
    s_bc = np.sqrt(alpha_phys)
    blocks.extend([s_int * L, s_bc * B])
    targets.extend([s_int * g, s_bc * u_b])
    M = np.vstack(blocks)
    rhs = np.concatenate(targets)
    w, _, rank, _ = np.linalg.lstsq(M, rhs, rcond=None)
    if rank < n_b and alpha_reg == 0:
        raise NumericalError(
            f"stacked data+physics system is rank-deficient (rank {rank} of {n_b}); "
            "add regularization (alpha_reg)"
        )
    return LinearModel(basis, w[:, None])


def constrained_solve(
    problem: CollocationProblem,
    basis: BasisSpec,
    alpha_reg: float,
    data: Dataset | None = None,
) -> ConstrainedSolution:
    """Interior-residual least squares subject to exact boundary conditions.

    Minimizes (data MSE if data is given) + alpha_reg ||w||^2
    + mean squared interior residual, subject to the boundary rows holding
    exactly: the KKT system [[H, B^T], [B, 0]] [w; lambda] = [f; u_b].

    It is solved by the null-space method (Nocedal & Wright, *Numerical
    Optimization*, section 16.2). The QR factorization B^T = Q1 R, with Q2
    completing Q1 to an orthogonal basis, splits w = Q1 y + Q2 z: R^T y = u_b
    gives B w = u_b, the reduced system (Q2^T H Q2) z = Q2^T (f - H Q1 y)
    minimizes over the null space of B, and R lambda = Q1^T (f - H w) gives
    the multipliers. B's rows only meet R and Q, never H, so the boundary
    defect stays at rounding relative to B and w even when H is many orders
    larger; an LU solve of the whole KKT matrix loses that. A defect above
    BC_RESIDUAL_RTOL max(1, ||B||_F ||w|| + ||u_b||) is a NumericalError; the
    ||w|| term admits the huge weights a basis needs to meet a condition
    through its tails alone, whose rounding leaves a defect near eps ||B|| ||w||.
    """
    _check_scalar_targets(data)
    if not alpha_reg > 0:
        raise ValidationError(f"alpha_reg must be positive, got {alpha_reg}")
    n_b = basis.n_basis
    x_c, L, g, B, u_b = _collocation(problem, basis)
    n_eq = B.shape[0]
    if n_eq > n_b:
        raise ValidationError(f"{n_eq} hard constraints exceed the {n_b} basis functions")
    rank_B = np.linalg.matrix_rank(B)
    if rank_B < n_eq:
        distinct = list({(bc.location, bc.kind): k for k, bc in enumerate(problem.boundary)}
                        .values())
        if np.linalg.matrix_rank(B[distinct]) < len(distinct):
            raise ValidationError(
                f"boundary conditions are linearly dependent: the basis ({n_b} functions) "
                "cannot separate conditions that differ in location or kind")
        aug_rank = np.linalg.matrix_rank(np.column_stack([B, u_b]))
        if aug_rank > rank_B:
            raise ValidationError("boundary conditions are mutually infeasible")
        raise ValidationError("boundary conditions are redundant; remove duplicates")
    H = 2.0 * (alpha_reg * np.eye(n_b) + (L.T @ L) / x_c.size)
    f = 2.0 * (L.T @ g) / x_c.size
    if data is not None:
        Phi = feature_matrix(basis, data.inputs)
        H = H + 2.0 * (Phi.T @ Phi) / data.n_points
        f = f + 2.0 * (Phi.T @ data.targets[:, 0]) / data.n_points
    Q, R = np.linalg.qr(B.T, mode="complete")
    Q1, Q2, R = Q[:, :n_eq], Q[:, n_eq:], R[:n_eq]
    reduced = Q2.T @ (H @ Q2)
    try:  # nonsingular in exact arithmetic: B has full row rank and H >= 2 alpha_reg I
        y = np.linalg.solve(R.T, u_b)
        z = np.linalg.solve(reduced, Q2.T @ (f - H @ (Q1 @ y)))
        w = Q1 @ y + Q2 @ z
        lam = np.linalg.solve(R, Q1.T @ (f - H @ w))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"KKT system is singular (reduced Hessian rank "
                             f"{np.linalg.matrix_rank(reduced)} of {n_b - n_eq})") from exc
    bc_defect = float(np.linalg.norm(B @ w - u_b))
    bc_scale = max(1.0, float(np.linalg.norm(B) * np.linalg.norm(w) + np.linalg.norm(u_b)))
    if not bc_defect <= BC_RESIDUAL_RTOL * bc_scale:  # NaN too
        raise NumericalError(f"boundary defect {bc_defect:.3e} exceeds {BC_RESIDUAL_RTOL:.0e} "
                             f"of max(1, |B| |w| + |u_b|) = {bc_scale:.3e}")
    return ConstrainedSolution(w, lam, bc_defect)


def _stencil(problem: CollocationProblem, fd_step, alpha_phys):
    """The evaluation points X (x_c - h, x_c, x_c + h at the interior
    points x_c, then the Dirichlet points, then a pair x -+ h per Neumann
    point) and ``terms(u)``: alpha_phys times the physics cost of the
    network outputs u at X and its gradient in u."""
    x_c = problem.interior_points(16)  # without explicit points: 32, whatever the net
    h = fd_step
    a, b, c, g = _coeffs_at(problem, x_c)
    n_c = x_c.size
    # d r / d u on the rows x_c - h, x_c, x_c + h of r = a u'' + b u' + c u - g
    dr_du = (a / (h * h) - b / (2.0 * h), -2.0 * a / (h * h) + c, a / (h * h) + b / (2.0 * h))
    dirichlet = [bc for bc in problem.boundary if bc.kind == "dirichlet"]
    neumann = [bc for bc in problem.boundary if bc.kind == "neumann"]
    pts = [x_c - h, x_c, x_c + h]
    pts += [np.array([bc.location]) for bc in dirichlet]
    pts += [np.array([bc.location - h, bc.location + h]) for bc in neumann]

    def terms(u):
        u_minus, u_0, u_plus = u[:n_c], u[n_c : 2 * n_c], u[2 * n_c : 3 * n_c]
        du = (u_plus - u_minus) / (2.0 * h)
        ddu = (u_plus - 2.0 * u_0 + u_minus) / (h * h)
        r = a * ddu + b * du + c * u_0 - g
        cost = float(np.sum(r * r) / n_c)
        G = np.zeros_like(u)
        dr = 2.0 * r / n_c
        for k, coeff in enumerate(dr_du):
            G[k * n_c : (k + 1) * n_c] = dr * coeff
        pos = 3 * n_c
        for bc in dirichlet:
            rb = u[pos] - bc.value
            cost += rb * rb
            G[pos] = 2.0 * rb
            pos += 1
        for bc in neumann:
            rb = (u[pos + 1] - u[pos]) / (2.0 * h) - bc.value
            cost += rb * rb
            G[pos] = -2.0 * rb / (2.0 * h)
            G[pos + 1] = 2.0 * rb / (2.0 * h)
            pos += 2
        return alpha_phys * cost, alpha_phys * G[:, None]

    return np.concatenate(pts)[:, None], terms


def _pinn_objective(net: MLP, problem, data: Dataset | None, alpha_phys, fd_step):
    """``grad(w, rows)`` (data term on the rows, if any, then physics) and
    ``cost(w)`` of the network of net's shape with flat parameters w. The
    physics pass is kept for the last w it ran on (``train`` changes no
    parameter array in place)."""
    if net.layer_sizes[0] != 1 or net.layer_sizes[-1] != 1:
        raise ValidationError(f"a PINN network maps 1 input to 1 output, not {net.layer_sizes}")
    X, terms = _stencil(problem, fd_step, alpha_phys)
    if data is not None:
        data_grad, data_cost = net.flat_objective(data.inputs, data.targets, MSE())
    last = [None, None]

    def physics(w):
        if last[0] is not w:
            u, back = _sweep(net, w, X)
            last[:] = w, (back, *terms(u[:, 0]))
        return last[1]

    def grad(w, rows):
        g = np.zeros_like(w)
        if rows is not None:
            g += data_grad(w, rows)
        if alpha_phys > 0:
            back, _, G = physics(w)
            g += back(G)
        return g

    def cost(w):
        j = physics(w)[1]
        return j + data_cost(w) if data is not None else j

    return grad, cost


def pinn_cost(net: MLP, problem, data: Dataset | None, alpha_phys, fd_step=1e-3) -> float:
    """Combined data + physics cost of a network (monitoring helper), the
    reference that tests hold the training gradient against; it evaluates
    the network with ``forward``, the forward half of the training sweep."""
    X, terms = _stencil(problem, fd_step, alpha_phys)
    cost = terms(forward(net, X)[:, 0])[0]
    if data is not None:
        e = forward(net, data.inputs) - data.targets
        cost += float(np.sum(e * e) / data.n_points)
    return cost


def pinn_train(
    net: MLP,
    problem: CollocationProblem,
    data: Dataset | None,
    alpha_phys: float,
    opt: OptimizerState,
    sched: BatchSchedule,
    fd_step: float = 1e-3,
) -> tuple[MLP, np.ndarray]:
    """Penalty-trained network solver for the collocation problem.

    The cost is the mean squared data error (when data is present) plus
    alpha_phys times the physics cost: mean squared interior residual with
    the network's u', u'' taken by central finite differences, plus squared
    boundary defects appended as extra penalty rows. Gradients flow through
    every finite-difference stencil evaluation by backprop.

    ``optim.train`` runs on the flat parameters: with data, each epoch walks
    seeded mini-batches of the data rows (the physics gradient is
    recomputed in full at every step); without data, each epoch is one full
    physics step. The stencil (points, coefficients, split boundary
    conditions) is prepared once, and the physics forward pass runs once
    per distinct weight vector, so the cost that ends an epoch also serves
    the next step's gradient. The per-epoch combined cost is recorded;
    training aborts with the last finite state on divergence.
    """
    _check_scalar_targets(data)
    if alpha_phys < 0:
        raise ValidationError(f"alpha_phys must be nonnegative, got {alpha_phys}")
    grad, cost = _pinn_objective(net, problem, data, alpha_phys, fd_step)
    n_rows = data.n_points if data is not None else 0
    result = train(flatten_params(net), grad, cost, opt, sched, n_rows)
    return net.with_params(result.w), result.history


# ---------------------------------------------------------------------------
# problem files: coefficient functions are named built-ins with parameters

def coefficient_from_spec(doc, name: str = "coefficient") -> object:
    """Build a coefficient function from its JSON description: a number, or
    an object whose kind is const {value}, poly {coeffs, highest power
    first} or sin {amplitude, frequency, phase} meaning A sin(f x + p).
    ``name`` labels the coefficient in error messages.

    The function maps an array of points to an array of values; a number
    or a const kind gives a scalar, which callers broadcast.
    """
    what = f"coefficient {name!r}"
    if not isinstance(doc, dict):
        if isinstance(doc, bool) or not isinstance(doc, (int, float)):
            raise ValidationError(f"{what} must be a number or a JSON object, got {doc!r}")
        v = as_number(doc, what)
        return lambda x: v
    require_keys(doc, ("kind",), what)
    kind = doc["kind"]
    if kind == "const":
        require_keys(doc, ("value",), what)
        v = as_number(doc["value"], f"{what} key 'value'")
        return lambda x: v
    if kind == "poly":
        require_keys(doc, ("coeffs",), what)
        coeffs = as_number_array(doc["coeffs"], f"{what} key 'coeffs'", vector=True)
        return lambda x: np.polyval(coeffs, x)
    if kind == "sin":
        amp = as_number(doc.get("amplitude", 1.0), f"{what} key 'amplitude'")
        freq = as_number(doc.get("frequency", 1.0), f"{what} key 'frequency'")
        phase = as_number(doc.get("phase", 0.0), f"{what} key 'phase'")
        return lambda x: amp * np.sin(freq * x + phase)
    raise ValidationError(f"unknown kind {kind!r} of {what}")


def problem_from_dict(doc: dict) -> CollocationProblem:
    require_keys(doc, ("domain", "boundary"), "problem")
    bcs = []
    for i, b in enumerate(doc["boundary"]):
        what = f"boundary condition {i}"
        require_keys(b, ("location", "kind", "value"), what)
        bcs.append(BoundaryCondition(as_number(b["location"], f"{what} key 'location'"),
                                     str(b["kind"]).lower(),
                                     as_number(b["value"], f"{what} key 'value'")))
    domain = as_number_array(doc["domain"], "problem key 'domain'", vector=True)
    if domain.size != 2:
        raise ValidationError(f"problem key 'domain' must hold 2 numbers, got {domain.size}")
    lo, hi = (float(v) for v in domain)
    pts = doc.get("collocation_points")
    if pts is not None:
        pts = as_number_array(pts, "problem key 'collocation_points'")
    elif "n_collocation" in doc:
        n = as_integer(doc["n_collocation"], "problem key 'n_collocation'")
        if n < 1:
            raise ValidationError(f"problem key 'n_collocation' must be at least 1, got {n}")
        pts = np.linspace(lo, hi, n + 2)[1:-1]
    return CollocationProblem(
        a=coefficient_from_spec(doc.get("a", 1.0), "a"),
        b=coefficient_from_spec(doc.get("b", 0.0), "b"),
        c=coefficient_from_spec(doc.get("c", 0.0), "c"),
        source=coefficient_from_spec(doc.get("source", 0.0), "source"),
        domain=(lo, hi),
        boundary=bcs,
        collocation_points=pts,
    )


def load_problem(path) -> CollocationProblem:
    return load_json_file(path, problem_from_dict)
