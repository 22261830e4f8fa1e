"""The four workloads: seeded inputs, one pass of work, and output checks.

A workload object is built from the seed (that is the set-up: only plain
numbers and config files come out of it).  `run_pass()` makes the calls into
inflap and returns their raw results; `check()` then compares them with the
references, outside the timed region, and books every operation into a
`Ledger`.  Every pass of a run repeats the same inputs, so the work per pass
and its counters are the same in every pass.

inflap is always reached as `inflap.<name>` at call time, so the wrappers
that a traced run installs are the ones called.
"""

import json
import math
import os

import numpy as np
from scipy import integrate, special

import inflap
import inflap.cli

SIGMA = 3.0 ** (4.0 / 3.0) / 4.0
UNIT_BALL = {"kind": "ball", "center": [0.0, 0.0], "R": 1.0}


def _ball(R):
    return {"kind": "ball", "center": [0.0, 0.0], "R": R}


def _radius(d):
    return np.sqrt(sum(g ** 2 for g in d.grid_coords()))


def _radial_const_exact(c, r, r0, b):
    """Exact radial solution of Delta_inf u = c with u = b at r = r0."""
    a = np.cbrt(81.0 * c / 64.0)
    return a, b + a * (r ** (4.0 / 3.0) - r0 ** (4.0 / 3.0))


class Ledger:
    """Operations attempted and failed, and the worst reference error."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.solver_ops = 0
        self.solver_ok = 0
        self.max_err = 0.0
        self.problems = []

    def op(self, name, failures):
        self.attempted += 1
        if failures:
            self.failed += 1
            self.problems.append("%s: %s" % (name, "; ".join(failures)))

    def status(self, failures, what, got, expected):
        self.solver_ops += 1
        if got == expected:
            self.solver_ok += 1
        else:
            failures.append("%s status %s, expected %s" % (what, got,
                                                            expected))

    def solve(self, failures, what, status, residual, expected, tol):
        self.status(failures, what, status, expected)
        if expected == "converged" and not float(residual) <= tol:
            failures.append("%s residual %s above tol %.1e"
                            % (what, residual, tol))

    def error(self, failures, what, err, bound):
        self.max_err = max(self.max_err, err)
        if not err <= bound:
            failures.append("%s error %.3e over bound %.1e"
                            % (what, err, bound))


class BallConst:
    """x-only constant-rhs Dirichlet solves on the unit ball (closed form).

    The batch follows the acceptance Harnack suite, c ~ U(-2, 0) and a
    constant boundary value b ~ U(0.5, 2), with c stratified: one draw from
    each of BATCH equal slices of (-2, 0), so the sweep count of a batch
    varies less from seed to seed.  max_err is the sup error against
    u = b + a (r^(4/3) - 1), a = cbrt(81 c / 64), relative to |a|.
    """
    H = 1.0 / 16
    TOL = 1e-7
    BATCH = 3
    MAX_SWEEPS = 5000
    ERR_BOUND = 0.10
    ENTRY_POINTS = ("core.build_domain", "solver.solve_dirichlet",
                    "scheme.Stencil.__init__", "scheme.Stencil.pair_arrays",
                    "core.RhsSpec.eval_grid")

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        width = 2.0 / self.BATCH
        self.cases = [(-float(rng.uniform(i * width, (i + 1) * width)),
                       float(rng.uniform(0.5, 2.0)))
                      for i in range(self.BATCH)]

    def run_pass(self):
        d = inflap.build_domain(UNIT_BALL, self.H)
        out = []
        for c, b in self.cases:
            u, rep = inflap.solve_dirichlet(
                d, inflap.RhsSpec("(const %.17g)" % c),
                inflap.BoundaryTrace.constant(d, b),
                inflap.SolveOptions(tol=self.TOL,
                                    max_sweeps=self.MAX_SWEEPS))
            out.append((u, rep))
        return out

    def check(self, results, led):
        for (c, b), (u, rep) in zip(self.cases, results):
            fails = []
            led.solve(fails, "solve", rep.status, rep.residual, "converged",
                      self.TOL)
            d = u.domain
            a, exact = _radial_const_exact(c, _radius(d), 1.0, b)
            ne = d.nonexterior
            err = float(np.abs(u.values[ne] - exact[ne]).max()) / abs(a)
            led.error(fails, "radial reference", err, self.ERR_BOUND)
            led.op("solve c=%.4f b=%.4f" % (c, b), fails)


class BallExp:
    """f = -e^u on the ball R = 0.5: Dirichlet, Perron and blow-up probe.

    The seed draws the constant boundary value b ~ U(-0.1, 0).  Perron runs
    between the sub-solution b and the super-solution b + cone of
    criterion 05; the probe runs on the ball R = 3 at h = 1/8.  max_err is
    the sup difference between the Dirichlet and the Perron fields.
    """
    H = 1.0 / 16
    TOL = 1e-6
    ERR_BOUND = 10 * TOL
    MAX_SWEEPS = 5000
    PROBE = dict(R=3.0, h=1.0 / 8, alarm=20.0, max_sweeps=500)
    RHS = "(neg (exp t))"
    ENTRY_POINTS = ("core.build_domain", "solver.solve_dirichlet",
                    "solver.perron_solve", "solver.probe_nonexistence",
                    "radial.cone_field", "scheme.Stencil.__init__",
                    "scheme.Stencil.pair_arrays", "core.RhsSpec.eval_grid")

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.b = -float(rng.uniform(0.0, 0.1))

    def run_pass(self):
        f = inflap.RhsSpec(self.RHS, monotone_in_t="nonincreasing")
        opts = inflap.SolveOptions(tol=self.TOL, max_sweeps=self.MAX_SWEEPS)
        d = inflap.build_domain(_ball(0.5), self.H)
        b = inflap.BoundaryTrace.constant(d, self.b)
        u1, r1 = inflap.solve_dirichlet(d, f, b, opts)
        sub = inflap.ScalarField.constant(d, self.b)
        cone = inflap.cone_field(d, 1.3, [0.0, 0.0],
                                 SIGMA * 0.5 ** (4.0 / 3.0), "super")
        sup = inflap.ScalarField(d, cone.values + self.b)
        u2, r2 = inflap.perron_solve(d, f, b, sub, sup, opts)
        p = self.PROBE
        dp = inflap.build_domain(_ball(p["R"]), p["h"])
        r3 = inflap.probe_nonexistence(
            dp, f, inflap.BoundaryTrace.constant(dp, self.b),
            inflap.SolveOptions(alarm_bound=p["alarm"],
                                max_sweeps=p["max_sweeps"]))
        return u1, r1, u2, r2, sub, sup, r3

    def check(self, results, led):
        u1, r1, u2, r2, sub, sup, r3 = results
        ne = u1.domain.nonexterior
        fails = []
        led.solve(fails, "dirichlet", r1.status, r1.residual, "converged",
                  self.TOL)
        led.op("dirichlet b=%.4f" % self.b, fails)
        fails = []
        led.solve(fails, "perron", r2.status, r2.residual, "converged",
                  self.TOL)
        v = u2.values[ne]
        if not ((v >= sub.values[ne] - 1e-12).all()
                and (v <= sup.values[ne] + 1e-12).all()):
            fails.append("perron field leaves [sub, super]")
        err = float(np.abs(u1.values[ne] - v).max())
        led.error(fails, "dirichlet vs perron", err, self.ERR_BOUND)
        led.op("perron b=%.4f" % self.b, fails)
        fails = []
        led.status(fails, "probe", r3.status, "diverged_past_alarm")
        led.op("probe b=%.4f" % self.b, fails)


class Cascade1D:
    """Criterion 02's cascade: f = c on [0, 1], 126 -> 1001 nodes.

    The seed draws c ~ U(0.5, 2) and the boundary value b ~ U(-1, 1); the
    level tolerances of criterion 02 are scaled by c, which leaves the
    iteration count unchanged.  max_err is the sup error against
    b + c^(1/3) (|3(x - 1/2)|^(4/3) - 1.5^(4/3)) / 4, relative to c^(1/3).
    """
    LEVELS = ((126, 1e-6), (251, 5e-4), (501, 5e-4), (1001, 1e-3))
    MAX_SWEEPS = 50000
    ERR_BOUND = 1e-2
    ENTRY_POINTS = ("core.build_domain", "solver.solve_dirichlet",
                    "scheme.Stencil.__init__", "scheme.Stencil.pair_arrays",
                    "core.RhsSpec.eval_grid")

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.c = float(rng.uniform(0.5, 2.0))
        self.b = float(rng.uniform(-1.0, 1.0))

    def run_pass(self):
        f = inflap.RhsSpec("(const %.17g)" % self.c)
        guess, out = None, []
        for n, tol in self.LEVELS:
            d = inflap.build_domain({"kind": "box", "lo": [0.0],
                                     "hi": [1.0]}, 1.0 / (n - 1))
            b = inflap.BoundaryTrace.constant(d, self.b)
            g = None if guess is None else inflap.ScalarField(
                d, np.interp(d.grid_coords()[0], *guess))
            u, rep = inflap.solve_dirichlet(
                d, f, b, inflap.SolveOptions(tol=tol * self.c,
                                             max_sweeps=self.MAX_SWEEPS),
                initial_guess=g)
            guess = (d.grid_coords()[0], u.values)
            out.append((u, rep))
        return out

    def check(self, results, led):
        scale = self.c ** (1.0 / 3.0)
        for (n, tol), (u, rep) in zip(self.LEVELS, results):
            fails = []
            led.solve(fails, "level %d" % n, rep.status, rep.residual,
                      "converged", tol * self.c)
            if n == self.LEVELS[-1][0]:
                x = u.domain.grid_coords()[0]
                exact = self.b + scale * (
                    np.abs(3.0 * (x - 0.5)) ** (4.0 / 3.0)
                    - 1.5 ** (4.0 / 3.0)) / 4.0
                err = float(np.abs(u.values - exact).max()) / scale
                led.error(fails, "1-D profile", err, self.ERR_BOUND)
            led.op("cascade level %d c=%.4f" % (n, self.c), fails)


def _read_csv_values(path):
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return rows[:, :-1], rows[:, -1]


def _radial_R_exp(a, prefactor):
    """R of the profile of h = e^t, ell = 0, by independent quadrature.

    R = prefactor * int_0^a (e^a - e^s)^(-1/4) ds; the endpoint singularity
    goes into quad's algebraic weight (a - s)^(-1/4).
    """
    def g(s):
        return (math.expm1(a - s) / (a - s) * math.exp(s)) ** -0.25 \
            if s < a else math.exp(a) ** -0.25
    val, _ = integrate.quad(g, 0.0, a, weight="alg", wvar=(0.0, -0.25),
                            epsabs=1e-13, epsrel=1e-12)
    return prefactor * val


def _family_a(gamma):
    """a(gamma) from the Beta function: I = B(1/(g+1), 3/4) / (g+1)."""
    g1 = gamma + 1.0
    integral = special.beta(1.0 / g1, 0.75) / g1
    return (integral * (g1 / 4.0) ** 0.25) ** (4.0 / (gamma - 3.0))


class CliLab:
    """All seven CLI actions in-process, each run twice on the same config.

    Configs are generated from the seed into a directory of the checkout;
    each action's two output directories must be byte-identical and its exit
    code the documented one (0, and 3 for the probe).  max_err is the worst
    reference error over the solve, perron, radial and family outputs.
    """
    ACTIONS = ("criteria", "radial", "family", "verify", "solve", "perron",
               "probe")
    EXIT = {"probe": 3}
    ENTRY_POINTS = (
        "cli.main", "cli.parse_config", "cli.write_report", "cli.write_field",
        "core.build_domain", "solver.solve_dirichlet", "solver.perron_solve",
        "solver.probe_nonexistence", "radial.build_profile",
        "radial.ode_residual", "radial.exact_family", "radial.save_profile",
        "criteria.c_eta", "criteria.diam_threshold",
        "criteria.nonexistence_radius", "criteria.dd3_check",
        "criteria.apriori_box", "criteria.growth_class",
        "criteria.cubic_smallness", "criteria.eigen_bracket",
        "verify.check_comparison", "verify.check_apriori",
        "verify.lipschitz_bound", "verify.check_harnack")
    DIAM_THRESHOLD = 1.0151817887492676   # f = -e^u, b = 0 (CLI tests)
    NONEXISTENCE_RADIUS = (1.179, 1.180)  # h = e^t, ell = 0 (ROADMAP)

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        u = lambda lo, hi: float(rng.uniform(lo, hi))
        self.p = p = {"solve_c": -u(0.5, 2.0), "solve_b": u(0.0, 1.0),
                      "perron_c": u(0.5, 1.5), "radial_a": u(0.5, 2.0),
                      "family_k": int(rng.integers(1, 4)),
                      "a_sup": u(0.2, 0.7), "verify_c": -u(0.5, 1.5),
                      "verify_b": u(0.5, 2.0)}
        small = {"domain": _ball(0.5), "h": 0.125}
        neg_exp = {"rhs": "(neg (exp t))", "rhs_monotone": "nonincreasing",
                   "boundary": {"constant": 0.0}}
        cfgs = {
            "criteria": {"problem": dict(neg_exp, domain=_ball(0.5),
                                         h=1.0 / 16),
                         "criteria": {"eta_list": [0.5, 1.0, 3.0],
                                      "m": "(exp t)", "a_sup": p["a_sup"],
                                      "eigen": True}},
            "radial": {"radial": {"m": "(exp t)", "ell": 0.0,
                                  "a": p["radial_a"], "prefactor": 1.0,
                                  "n": 2000}},
            "family": {"problem": {"domain": UNIT_BALL, "h": 1.0 / 32},
                       "family": {"gamma": 7.0, "k": p["family_k"],
                                  "n": 2000}},
            "verify": {"problem": {"domain": UNIT_BALL, "h": 0.125,
                                   "rhs": "(const %.17g)" % p["verify_c"],
                                   "boundary": {"constant": p["verify_b"]}},
                       "solve": {"tol": 1e-8, "max_sweeps": 5000},
                       "verify": {"checks": [
                           {"type": "comparison",
                            "rhs2": "(const %.17g)" % (p["verify_c"] - 1.0),
                            "mode": "strict-ordered-rhs"},
                           {"type": "apriori"}, {"type": "lipschitz"},
                           {"type": "harnack", "h_sup_plus": 0.0,
                            "z": [0.0, 0.0], "r": 0.32}]}},
            "solve": {"problem": dict(small,
                                      rhs="(const %.17g)" % p["solve_c"],
                                      boundary={"constant": p["solve_b"]}),
                      "solve": {"tol": 1e-8, "max_sweeps": 5000}},
            "perron": {"problem": dict(small,
                                       rhs="(const %.17g)" % p["perron_c"],
                                       boundary={"constant": 0.0}),
                       "solve": {"tol": 1e-7, "max_sweeps": 5000},
                       "perron": {"sub": {"constant": -1.0},
                                  "super": {"constant": 0.0}}},
            "probe": {"problem": dict(neg_exp, domain=_ball(3.0), h=0.25),
                      "solve": {"alarm_bound": 20.0, "max_sweeps": 500}},
        }
        self.cfgs = cfgs
        self.dir = workdir
        self.paths = {}
        for action, cfg in cfgs.items():
            path = os.path.join(workdir, action + ".json")
            with open(path, "w") as fh:
                json.dump(cfg, fh, indent=1)
            self.paths[action] = path

    def _out(self, action, k):
        return os.path.join(self.dir, "%s.out%d" % (action, k))

    def run_pass(self):
        codes = {}
        for action in self.ACTIONS:
            codes[action] = [inflap.cli.main(
                [action, "--config", self.paths[action], "--out",
                 self._out(action, k)]) for k in (1, 2)]
        return codes

    def check(self, codes, led):
        for action in self.ACTIONS:
            fails = []
            want = self.EXIT.get(action, 0)
            if codes[action] != [want, want]:
                fails.append("exit codes %s, expected %d"
                             % (codes[action], want))
            first, second = self._out(action, 1), self._out(action, 2)
            names = sorted(os.listdir(first))
            if names != sorted(os.listdir(second)) \
                    or "report.json" not in names:
                fails.append("output file sets differ or lack report.json")
            else:
                for name in names:
                    with open(os.path.join(first, name), "rb") as f1, \
                            open(os.path.join(second, name), "rb") as f2:
                        if f1.read() != f2.read():
                            fails.append("%s differs between runs" % name)
                with open(os.path.join(first, "report.json")) as fh:
                    rep = json.load(fh)
                getattr(self, "_check_" + action)(rep, first, fails, led)
            led.op("cli %s" % action, fails)

    def _check_solver_report(self, what, rep, expected, fails, led):
        led.solve(fails, what, rep["solve"]["status"],
                  rep["solve"]["residual"], expected,
                  self.cfgs[what]["solve"].get("tol"))

    def _field_error(self, out, c, r0, b):
        x, v = _read_csv_values(os.path.join(out, "field.csv"))
        a, exact = _radial_const_exact(c, np.sqrt((x ** 2).sum(axis=1)),
                                       r0, b)
        return float(np.abs(v - exact).max()) / abs(a), v

    def _check_solve(self, rep, out, fails, led):
        self._check_solver_report("solve", rep, "converged", fails, led)
        err, _ = self._field_error(out, self.p["solve_c"], 0.5,
                                   self.p["solve_b"])
        led.error(fails, "solve radial reference", err, 0.25)

    def _check_perron(self, rep, out, fails, led):
        self._check_solver_report("perron", rep, "converged", fails, led)
        err, v = self._field_error(out, self.p["perron_c"], 0.5, 0.0)
        if not ((v >= -1.0 - 1e-12).all() and (v <= 1e-12).all()):
            fails.append("perron field leaves [sub, super]")
        led.error(fails, "perron radial reference", err, 0.25)

    def _check_probe(self, rep, out, fails, led):
        self._check_solver_report("probe", rep, "diverged_past_alarm", fails,
                                  led)

    def _check_verify(self, rep, out, fails, led):
        self._check_solver_report("verify", rep, "converged", fails, led)
        kinds = [c["name"] for c in rep["checks"]]
        if kinds != ["comparison", "apriori", "lipschitz", "harnack"] \
                or any(c["status"] != "pass" for c in rep["checks"]):
            fails.append("verify checks %s" % [(c["name"], c["status"])
                                                for c in rep["checks"]])

    def _check_radial(self, rep, out, fails, led):
        prof = rep["profile"]
        if not float(prof["ode_residual"]) <= 1e-4:
            fails.append("ode residual %s over 1e-4" % prof["ode_residual"])
        ref = _radial_R_exp(self.p["radial_a"], 1.0)
        led.error(fails, "radial R", abs(float(prof["R"]) - ref) / ref, 1e-6)

    def _check_family(self, rep, out, fails, led):
        fam = rep["family"]
        if abs(float(fam["R"]) - 1.0) > 1e-8:
            fails.append("family R %s is not 1" % fam["R"])
        ref = (2 * self.p["family_k"] - 1) * _family_a(7.0)
        led.error(fails, "family sup", abs(float(fam["sup_norm"]) - ref) / ref,
                  1e-4)

    def _check_criteria(self, rep, out, fails, led):
        c = rep["criteria"]
        a, R = self.p["a_sup"], 0.5
        lo, hi = (float(v) for v in c["eigen"])
        if abs(lo * a * R ** 4 - 64.0 / 81.0) > 1e-10 \
                or abs(hi * a * R ** 4 - 16384.0 / 2187.0) > 1e-10:
            fails.append("eigen bracket %s off the closed form" % c["eigen"])
        thr = float(c["diam_threshold"])
        if abs(thr - self.DIAM_THRESHOLD) > 1e-9 * self.DIAM_THRESHOLD:
            fails.append("diameter threshold %s" % c["diam_threshold"])
        lo, hi = self.NONEXISTENCE_RADIUS
        if not lo <= float(c["nonexistence_radius"]) <= hi:
            fails.append("nonexistence radius %s" % c["nonexistence_radius"])


WORKLOADS = {"ball-const": BallConst, "ball-exp": BallExp,
             "cascade-1d": Cascade1D, "cli-lab": CliLab}
