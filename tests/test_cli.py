"""End-to-end tests for the inflap command line interface."""

import json

import numpy as np
import pytest

from inflap import (MonotoneRhs1D, ScalarField, build_domain, build_profile,
                    cone_field, power_subsolution, save_mask)
from inflap.cli import (ConfigError, _coord_fn, main, parse_config,
                        write_field)
from inflap.radial import RadialProfile, save_profile


BALL = {"kind": "ball", "center": [0.0, 0.0], "R": 0.5}


def _write(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def _run(tmp_path, action, cfg, extra=()):
    path = _write(tmp_path, cfg)
    out = tmp_path / "out"
    code = main([action, "--config", path, "--out", str(out)] + list(extra))
    return code, out


class TestConfigParsing:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError):
            parse_config(json.dumps({"problem": {}, "typo": 1}))

    def test_unknown_problem_key(self):
        with pytest.raises(ConfigError):
            parse_config(json.dumps({"problem": {"mesh": 0.1}}))

    def test_unknown_nested_key(self):
        cfg = {"problem": {"domain": BALL, "h": 0.125},
               "perron": {"sub": {"constant": 0.0, "slope": 1.0}}}
        with pytest.raises(ConfigError):
            parse_config(json.dumps(cfg))

    def test_unknown_scheme_key(self):
        cfg = {"problem": {"domain": BALL, "h": 0.125},
               "scheme": {"width": 2}}
        with pytest.raises(ConfigError):
            parse_config(json.dumps(cfg))

    def test_malformed_json(self):
        with pytest.raises(ConfigError):
            parse_config("{not json")

    @pytest.mark.parametrize("section", [
        {"solve": 5}, {"solve": None}, {"scheme": [1]}, {"problem": 3},
        {"problem": {"domain": [1, 2], "h": 0.125}},
        {"problem": {"domain": BALL, "h": 0.125, "boundary": 0.0}},
        {"perron": {"sub": -1.0}}],
        ids=["solve-5", "solve-null", "scheme-list", "problem-3",
             "domain-list", "boundary-number", "perron-sub-number"])
    def test_section_not_an_object_exit_one(self, tmp_path, capsys, section):
        cfg = dict({"problem": {"domain": BALL, "h": 0.125}}, **section)
        code, out = _run(tmp_path, "solve", cfg)
        assert code == 1
        assert "inflap: error:" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_config_not_an_object(self):
        with pytest.raises(ConfigError, match="JSON object"):
            parse_config("[1, 2]")

    def test_valid_config_accepted(self):
        cfg = {"problem": {"domain": BALL, "h": 0.125,
                           "rhs": "(const 1)",
                           "boundary": {"constant": 0.0}}}
        assert parse_config(json.dumps(cfg))["problem"]["h"] == 0.125


class TestSolveAction:
    CFG = {"problem": {"domain": BALL, "h": 0.125, "rhs": "(const 1)",
                       "boundary": {"constant": 0.0}},
           "solve": {"tol": 1e-8}}

    def test_exit_zero_and_outputs(self, tmp_path):
        code, out = _run(tmp_path, "solve", self.CFG)
        assert code == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["action"] == "solve"
        assert rep["solve"]["status"] == "converged"
        lines = (out / "field.csv").read_text().splitlines()
        assert lines[0] == "x0,x1,value"
        assert all(len(row.split(",")) == 3 for row in lines[1:])

    def test_reports_byte_identical(self, tmp_path):
        p = _write(tmp_path, self.CFG)
        outs = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            assert main(["solve", "--config", p, "--out", str(out)]) == 0
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_newton_steps_reported(self, tmp_path):
        # 1-D takes the Newton path; the ball keeps Gauss-Seidel
        line = {"problem": {"domain": {"kind": "box", "lo": [0.0],
                                       "hi": [1.0]},
                            "h": 0.01, "rhs": "(const 1)",
                            "boundary": {"constant": 0.0}},
                "solve": {"tol": 1e-8}}
        for cfg, newton in ((line, True), (self.CFG, False)):
            code, out = _run(tmp_path, "solve", cfg)
            assert code == 0
            rep = json.loads((out / "report.json").read_text())["solve"]
            assert (rep["newton_steps"] > 0) == newton
            assert (rep["sweeps"] == 0) == newton
            # the 2-D f == 0 start sweeps outside `sweeps`
            assert (rep["start_sweeps"] > 0) == (not newton)

    def test_h_override(self, tmp_path):
        code, out = _run(tmp_path, "solve", self.CFG, ["--h", "0.25"])
        assert code == 0
        # coarser grid: fewer rows in the field export
        rows = len((out / "field.csv").read_text().splitlines())
        code2, out2 = _run(tmp_path, "solve", self.CFG)
        assert rows < len((out2 / "field.csv").read_text().splitlines())

    def test_mask_domain_takes_file_spacing(self, tmp_path, capsys):
        # a mask domain needs no h; a different one is a config error
        path = str(tmp_path / "ball.mask")
        save_mask(build_domain(BALL, 0.125), path)
        mask = dict(self.CFG, problem=dict(self.CFG["problem"],
                                           domain={"kind": "mask",
                                                   "path": path}))
        del mask["problem"]["h"]
        outs = []
        for cfg in (self.CFG, mask):
            code, out = _run(tmp_path, "solve", cfg)
            assert code == 0
            outs.append((out / "field.csv").read_bytes())
        assert outs[0] == outs[1]
        for h, extra in ((0.25, ()), (None, ("--h", "0.25"))):
            mask["problem"]["h"] = h
            code, out = _run(tmp_path, "solve", mask, extra)
            assert code == 1
            assert "mask file's spacing" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["solve", "--config", str(tmp_path / "nope.json")])
        assert code == 1

    def test_boundary_expression(self, tmp_path):
        cfg = {"problem": {"domain": BALL, "h": 0.125, "rhs": "(const 0)",
                           "boundary": {"expression": "x0 - x1"}},
               "solve": {"tol": 1e-8}}
        code, out = _run(tmp_path, "solve", cfg)
        assert code == 0
        rep = json.loads((out / "report.json").read_text())
        assert float(rep["solve"]["sup"]) > 0.1

    @pytest.mark.parametrize("expr, ref", [
        ("x0 - x1", lambda x0, x1, r: x0 - x1),
        ("np.sin(np.pi * x0) + r", lambda x0, x1, r: np.sin(np.pi * x0) + r),
        ("-2 * x1 ** 2 / 3", lambda x0, x1, r: -2 * x1 ** 2 / 3),
        ("np.hypot(x0, +np.e)", lambda x0, x1, r: np.hypot(x0, np.e)),
    ])
    def test_boundary_expression_matches_numpy(self, expr, ref):
        pts = np.random.default_rng(3).uniform(-1.0, 1.0, (40, 2))
        got = _coord_fn(expr, 2)(pts)
        want = ref(pts[:, 0], pts[:, 1], np.linalg.norm(pts, axis=-1))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("expr", [
        "().__class__.__mro__[1].__subclasses__()",
        "__import__('os').getcwd()", "x2", "np.where(x0 > 0, 1, 2)",
        "np.add(x0, x1, out=x0)", "x0 if x1 else 1", "np.pi.real", "'1'",
        "x0 +", "1 / 0"])
    def test_boundary_expression_outside_whitelist(self, tmp_path, capsys,
                                                   expr):
        cfg = {"problem": {"domain": BALL, "h": 0.125, "rhs": "(const 0)",
                           "boundary": {"expression": expr}}}
        code, _ = _run(tmp_path, "solve", cfg)
        assert code == 1
        assert "boundary expression" in capsys.readouterr().err
        with pytest.raises(ConfigError):
            _coord_fn(expr, 2)(np.zeros((3, 2)))

    def test_bracket_failures_reported(self, tmp_path):
        # -1e4 e^t outgrows the linear term at all 25 interior nodes
        cfg = {"problem": {"domain": BALL, "h": 0.125,
                           "rhs": "(mul (const -1e4) (exp t))",
                           "boundary": {"constant": 0.0}},
               "solve": {"max_sweeps": 1}}
        code, out = _run(tmp_path, "solve", cfg)
        assert code == 4
        rep = json.loads((out / "report.json").read_text())
        assert rep["solve"]["status"] == "max_sweeps_reached"
        assert rep["solve"]["bracket_failures"] == 25
        code, out = _run(tmp_path, "solve", self.CFG)
        rep = json.loads((out / "report.json").read_text())
        assert rep["solve"]["bracket_failures"] == 0


class TestPerronAndProbe:
    def test_perron_action(self, tmp_path):
        cfg = {"problem": {"domain": BALL, "h": 0.125, "rhs": "(const 1)",
                           "boundary": {"constant": 0.0}},
               "solve": {"tol": 1e-7},
               "perron": {"sub": {"constant": -1.0},
                          "super": {"constant": 0.0}}}
        code, out = _run(tmp_path, "perron", cfg)
        assert code == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["solve"]["status"] == "converged"

    def test_perron_cone_super_power_sub(self, tmp_path):
        # the power sub-solution of Delta_inf v + v^1.5 >= 0 on the
        # 0.75-ball vanishes on the unit ball's boundary nodes; the cone
        # 2 (1.5 - sigma r^(4/3)) has Delta_inf = -8 <= -u^1.5 below 4
        unit = {"kind": "ball", "center": [0.0, 0.0], "R": 1.0}
        cfg = {"problem": {"domain": unit, "h": 0.125,
                           "rhs": "(neg (pow t 1.5))",
                           "boundary": {"constant": 0.0}},
               "solve": {"max_sweeps": 5000},
               "perron": {"sub": {"power": {"gamma": 1.5, "R": 0.75}},
                          "super": {"cone": {"C": 2.0, "z": [0.0, 0.0],
                                             "d": 1.5,
                                             "orientation": "super"}}}}
        code, out = _run(tmp_path, "perron", cfg)
        assert code == 0
        d = build_domain(unit, 0.125)
        ne = d.nonexterior
        sub = power_subsolution(1.5, 0.75, d).values[ne]
        sup = cone_field(d, 2.0, [0.0, 0.0], 1.5, "super").values[ne]
        rows = (out / "field.csv").read_text().splitlines()[1:]
        u = np.array([float(r.split(",")[-1]) for r in rows])
        assert u.shape == sub.shape
        assert (u >= sub - 1e-12).all() and (u <= sup + 1e-12).all()
        assert (u > sub + 1e-3).any() and (u < sup - 1e-3).any()

    def test_probe_diverges_exit_three(self, tmp_path):
        cfg = {"problem": {"domain": {"kind": "ball",
                                      "center": [0.0, 0.0], "R": 3.0},
                           "h": 0.25, "rhs": "(neg (exp t))",
                           "rhs_monotone": "nonincreasing",
                           "boundary": {"constant": 0.0}},
               "solve": {"alarm_bound": 20.0, "max_sweeps": 2000}}
        for action in ("probe", "solve"):
            code, out = _run(tmp_path, action, cfg)
            assert code == 3
            rep = json.loads((out / "report.json").read_text())
            assert rep["solve"]["status"] == "diverged_past_alarm"

    def test_probe_start_not_a_subsolution_exit_one(self, tmp_path, capsys):
        # f = e^u is positive at ell = 0, where the probe starts: it ran
        # its whole budget (exit 4) before it was rejected
        cfg = {"problem": {"domain": BALL, "h": 0.125, "rhs": "(exp t)",
                           "boundary": {"constant": 0.0}},
               "solve": {"alarm_bound": 20.0, "max_sweeps": 2000}}
        code, out = _run(tmp_path, "probe", cfg)
        assert code == 1
        assert "f(x, ell) > 0 at 25 interior nodes (max 1.0)" \
            in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_non_convergence_exit_four(self, tmp_path):
        cfg = {"problem": {"domain": BALL, "h": 0.125, "rhs": "(const -1)",
                           "boundary": {"constant": 0.0}},
               "solve": {"max_sweeps": 5},
               "perron": {"sub": {"constant": -1.0},
                          "super": {"constant": 0.05}}}
        for action in ("solve", "perron"):
            code, out = _run(tmp_path, action, cfg)
            assert code == 4
            rep = json.loads((out / "report.json").read_text())["solve"]
            assert rep["status"] == "max_sweeps_reached"
        assert rep["clipped"]
        cfg["solve"]["alarm_bound"] = 100.0
        code, out = _run(tmp_path, "probe", cfg)
        assert code == 4

    def test_overflow_exit_three(self, tmp_path, capsys):
        # a sub of order 1e200 overflows the residual at the first sweep:
        # a diverged run with its report, not a config error
        cfg = {"problem": {"domain": {"kind": "ball", "center": [0.0, 0.0],
                                      "R": 1.0},
                           "h": 0.125, "rhs": "(const -1)",
                           "boundary": {"constant": 0.0}},
               "perron": {"sub": {"cone": {"C": 1e200, "z": [0.0, 0.0],
                                           "d": 0.0,
                                           "orientation": "super"}},
                          "super": {"constant": 1e201}}}
        code, out = _run(tmp_path, "perron", cfg)
        assert code == 3
        assert "error" not in capsys.readouterr().err
        rep = json.loads((out / "report.json").read_text())["solve"]
        assert rep["status"] == "diverged_past_alarm"
        assert rep["residual"] == "nan" and rep["sweeps"] == 1
        rows = (out / "field.csv").read_text().splitlines()[1:]
        assert rows and all(np.isfinite(float(r.split(",")[-1]))
                            for r in rows)

    @pytest.mark.parametrize("solve", [{"damping": 0}, {"damping": -0.5},
                                       {"alarm_bound": -1},
                                       {"damping": 1.5}])
    def test_bad_iteration_settings_exit_one(self, tmp_path, capsys, solve):
        cfg = {"problem": {"domain": BALL, "h": 0.25, "rhs": "(const -1)",
                           "boundary": {"constant": 0.0}},
               "solve": dict(solve, max_sweeps=50)}
        code, out = _run(tmp_path, "solve", cfg)
        assert code == 1
        assert next(iter(solve)) in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("action, section, where", [
        ("perron", {"perron": {"sub": {"constant": -1.0},
                               "super": {"cone": {"C": 1.0}}}},
         "perron.super.cone needs 'z'"),
        ("perron", {"perron": {"sub": {"power": {"gamma": 1.5}}}},
         "perron.sub.power needs 'R'"),
        ("perron", {"perron": {"sub": {"cone": 1.0}}},
         "perron.sub.cone must be a JSON object"),
        ("verify", {"verify": {"checks": [{"type": "harnack"}]}},
         "verify check 'harnack' needs 'h_sup_plus'"),
        ("verify", {"verify": {"checks": [{"type": "comparison",
                                           "rhs2": "(const 1)"}]}},
         "verify check 'comparison' needs 'mode'"),
        ("verify", {"verify": {"checks": [{"r": 0.2}]}},
         "verify check needs 'type'")])
    def test_missing_key_exit_one(self, tmp_path, capsys, action, section,
                                  where):
        cfg = dict({"problem": {"domain": BALL, "h": 0.25,
                                "rhs": "(const 1)"}}, **section)
        code, out = _run(tmp_path, action, cfg)
        assert code == 1
        assert where in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("checks", [5, "apriori", None,
                                        {"type": "apriori"}, [5],
                                        [{"type": "apriori"}, "lipschitz"]])
    def test_checks_not_a_list_of_objects_exit_one(self, tmp_path, capsys,
                                                   checks):
        # a number here ended in a TypeError traceback
        cfg = {"problem": {"domain": BALL, "h": 0.25, "rhs": "(const 1)"},
               "verify": {"checks": checks}}
        code, out = _run(tmp_path, "verify", cfg)
        assert code == 1
        assert "inflap: error: verify.checks must be a list of JSON " \
            "objects" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("section, where", [
        ({"solve": {"max_sweeps": "x"}}, "solve.max_sweeps"),
        ({"solve": {"max_sweeps": 5.5}}, "solve.max_sweeps"),
        ({"solve": {"max_sweeps": None}}, "solve.max_sweeps"),
        ({"solve": {"tol": True}}, "solve.tol"),
        ({"solve": {"order": "red-black"}}, "unknown key 'order' in solve"),
        ({"scheme": {"w": "2"}}, "scheme.w"),
        ({"scheme": {"refined": True}}, "unknown key 'refined' in scheme")])
    def test_wrong_type_exit_one(self, tmp_path, capsys, section, where):
        cfg = dict({"problem": {"domain": BALL, "h": 0.25,
                                "rhs": "(const 1)"},
                    "perron": {"sub": {"constant": -1.0}}}, **section)
        for action in ("solve", "perron", "verify"):
            code, out = _run(tmp_path, action, cfg)
            assert code == 1
            assert where in capsys.readouterr().err
            assert not (out / "report.json").exists()
        # null stands for a None default, and an integer for a float
        cfg["solve"] = {"tol": None, "alarm_bound": None, "damping": 1}
        cfg["scheme"] = {}
        assert _run(tmp_path, "solve", cfg)[0] == 0

    @pytest.mark.parametrize("action, section, where", [
        ("criteria", {"criteria": {"eta_list": 5}}, "criteria.eta_list"),
        ("criteria", {"criteria": {"eta_list": ["a"]}},
         "criteria.eta_list"),
        ("criteria", {"criteria": {"h_range": 5}}, "criteria.h_range"),
        ("criteria", {"criteria": {"a_sup": "x"}}, "criteria.a_sup"),
        ("criteria", {"criteria": {"m": 5}}, "criteria.m"),
        ("solve", {"problem": {"domain": BALL, "h": "x"}}, "problem.h"),
        ("verify", {"verify": {"checks": [
            {"type": "harnack", "h_sup_plus": 0.0, "z": [0.0, 0.0],
             "r": "x"}]}}, "verify check 'harnack': h_sup_plus and r"),
        ("perron", {"perron": {"sub": {"power": {"gamma": "x", "R": 0.5}}}},
         "perron.sub.power: gamma and R must be of type float"),
        ("perron", {"perron": {"sub": {"cone": {
            "C": "x", "z": [0.0, 0.0], "d": 0.0, "orientation": "sub"}}}},
         "perron.sub.cone: C and d must be of type float"),
        ("radial", {"radial": {"m": "(exp t)", "a": "x"}},
         "radial: a must be of type float"),
        ("family", {"family": {"gamma": "x"}},
         "family: gamma must be of type float"),
        ("verify", {"verify": {"checks": [{"type": "lipschitz",
                                           "alpha": "x"}]}},
         "verify check 'lipschitz': alpha must be of type float"),
        ("verify", {"verify": {"checks": [{"type": "apriori",
                                           "h_range": "x"}]}},
         "verify check 'apriori': h_range must be of type list of numbers"),
        ("solve", {"problem": {"domain": BALL, "h": 0.25, "boundary": {}}},
         "problem.boundary needs exactly one of 'constant' and "
         "'expression'"),
        ("solve", {"problem": {"domain": BALL, "h": 0.25, "boundary": {
            "constant": 0.0, "expression": "x0"}}},
         "problem.boundary needs exactly one of"),
        ("solve", {"problem": {"domain": BALL, "h": 0.25,
                               "boundary": {"constant": [1]}}},
         "problem.boundary: constant must be of type float"),
        ("solve", {"problem": {"domain": BALL, "h": 0.25,
                               "boundary": {"constant": None}}},
         "problem.boundary: constant must be of type float"),
        ("solve", {"problem": {"domain": BALL, "h": 0.25,
                               "boundary": {"expression": 1}}},
         "problem.boundary: expression must be of type str"),
        ("solve", {"problem": {"domain": dict(BALL, R=[1]), "h": 0.25}},
         "problem.domain: R must be of type float"),
        ("solve", {"problem": {"domain": dict(BALL, center=None),
                               "h": 0.25}},
         "problem.domain: center must be of type list of numbers"),
        ("solve", {"problem": {"domain": {"kind": "box", "lo": [0, 0],
                                          "hi": 1}, "h": 0.25}},
         "problem.domain: lo and hi must be of type list of numbers"),
        ("solve", {"problem": {"domain": {"kind": "mask", "path": 5}}},
         "problem.domain: path must be of type str"),
        ("solve", {"problem": {"domain": {"center": [0, 0], "R": 0.5},
                               "h": 0.25}},
         "problem.domain needs 'kind'"),
        ("solve", {"problem": {"domain": BALL, "h": 0.25, "rhs": 5}},
         "problem: rhs must be of type str"),
        ("solve", {"problem": {"domain": BALL, "h": 0.25, "rhs": None}},
         "problem: rhs must be of type str"),
        ("solve", {"problem": {"domain": BALL, "h": 0.25,
                               "rhs_coefs": [1]}},
         "problem: rhs_coefs must be of type dict"),
        ("solve", {"problem": {"domain": BALL, "h": 0.25,
                               "rhs": "(coef a)", "rhs_coefs": {"a": "x"}}},
         "problem.rhs_coefs: a must be of type float"),
        ("solve", {"problem": {"domain": BALL, "h": 0.25,
                               "rhs_sign": "positive"}},
         "sign must be 'nonneg', 'nonpos', or 'mixed'"),
        ("solve", {"problem": {"domain": BALL, "h": 0.25,
                               "rhs_monotone": 1}},
         "problem: rhs_monotone must be of type str"),
        ("perron", {"perron": {"sub": {"constant": [1]}}},
         "perron.sub: constant must be of type float"),
        ("verify", {"verify": {"checks": [{"type": "lipschitz", "x0": 5}]}},
         "verify check 'lipschitz': x0 must be of type list of numbers"),
        ("verify", {"verify": {"checks": [{"type": "lipschitz",
                                           "x0": [100, 100]}]}},
         "x0 must be the 2 integer indices of an interior node"),
        ("verify", {"verify": {"checks": [{"type": "lipschitz",
                                           "x0": [4]}]}},
         "x0 must be the 2 integer indices of an interior node"),
        ("verify", {"verify": {"checks": [{"type": "lipschitz",
                                           "x0": [2.0, 2.0]}]}},
         "x0 must be the 2 integer indices of an interior node"),
        # keys that the kind, spec or check type does not read, and lists
        # of the wrong length: these exited 0, but the empty centre (an
        # AttributeError)
        ("solve", {"problem": {"domain": dict(BALL, lo=[3]), "h": 0.25}},
         "unknown key 'lo' in problem.domain of kind 'ball'"),
        ("solve", {"problem": {"domain": {"kind": "box", "lo": [0, 0],
                                          "hi": [1, 1], "R": 1},
                               "h": 0.25}},
         "unknown key 'R' in problem.domain of kind 'box'"),
        ("perron", {"perron": {"sub": {"constant": -1.0,
                                       "power": {"gamma": 1.5, "R": 0.5}}}},
         "perron.sub needs exactly one of 'constant', 'cone' and 'power'"),
        ("perron", {"perron": {"sub": {"constant": -1.0},
                               "super": {"cone": {
                                   "C": 1.0, "z": [0.0, 0.0], "d": 0.0,
                                   "orientation": "super", "zz": 1}}}},
         "unknown key 'zz' in perron.super.cone"),
        ("perron", {"perron": {"sub": {"power": {"gamma": 1.5, "R": 0.5,
                                                 "C": 1}}}},
         "unknown key 'C' in perron.sub.power"),
        ("verify", {"verify": {"checks": [{"type": "lipschitz",
                                           "alhpa": 0.5}]}},
         "unknown key 'alhpa' in verify check 'lipschitz'"),
        ("verify", {"verify": {"checks": [{"type": "apriori", "r": 0.1}]}},
         "unknown key 'r' in verify check 'apriori'"),
        ("solve", {"problem": {"domain": {"kind": "box", "lo": [0],
                                          "hi": [1, 1]}, "h": 0.25}},
         "box lo and hi need one coordinate per axis each"),
        ("solve", {"problem": {"domain": dict(BALL, center=[]), "h": 0.25}},
         "ball center needs one coordinate per axis"),
        # these exited 1 already, with another message or from later code
        ("solve", {"problem": {"domain": {"kind": "box", "lo": [], "hi": []},
                               "h": 0.25}},
         "box lo and hi need one coordinate per axis each"),
        ("perron", {"perron": {"sub": {}}},
         "perron.sub needs exactly one of"),
        ("solve", {"problem": {"domain": {"kind": "disc", "R": 1},
                               "h": 0.25}},
         "unknown shape kind: 'disc'"),
        ("verify", {"verify": {"checks": [{"type": "holder"}]}},
         "unknown check type: 'holder'")])
    def test_wrong_typed_value_exit_one(self, tmp_path, capsys, action,
                                        section, where):
        # each of these ended in a TypeError, AttributeError, KeyError or
        # IndexError traceback, or (a null centre, a numeric mask path,
        # an unknown rhs_sign) in a misleading error or none
        cfg = dict({"problem": {"domain": BALL, "h": 0.25,
                                "rhs": "(const 1)"}}, **section)
        code, out = _run(tmp_path, action, cfg)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("inflap: error:") and where in err
        assert not (out / "report.json").exists()

    def test_typed_problem_keys_accepted(self, tmp_path):
        # integers stand for floats, and a number coefficient for the
        # constant it names; the field is that of the literal rhs
        cfg = {"problem": {"domain": {"kind": "ball", "center": [0, 0],
                                      "R": 1}, "h": 0.25,
                           "rhs": "(coef a)", "rhs_coefs": {"a": -1},
                           "rhs_sign": "nonpos", "rhs_monotone": "none",
                           "boundary": {"constant": 1}}}
        assert _run(tmp_path, "solve", cfg)[0] == 0
        coef = (tmp_path / "out" / "field.csv").read_bytes()
        cfg["problem"].update(rhs="(const -1)", rhs_coefs=None,
                              rhs_sign=None, rhs_monotone=None)
        assert _run(tmp_path, "solve", cfg)[0] == 0
        assert (tmp_path / "out" / "field.csv").read_bytes() == coef

    def test_apriori_h_range_one_home(self, tmp_path):
        # the verify check and the criteria report take one default range
        # and reject the same malformed one
        cfg = {"problem": {"domain": BALL, "h": 0.25, "rhs": "(const 1)"},
               "verify": {"checks": [{"type": "apriori"}]}}
        assert _run(tmp_path, "verify", cfg)[0] == 0
        check = json.loads((tmp_path / "out" / "report.json").read_text())
        assert _run(tmp_path, "criteria", cfg)[0] == 0
        crit = json.loads((tmp_path / "out" / "report.json").read_text())
        details = check["checks"][0]["details"]
        assert [details["lower"], details["upper"]] \
            == crit["criteria"]["apriori_box"]
        bad = dict(cfg, criteria={"h_range": [-1.0, 0.0, 2.0]},
                   verify={"checks": [{"type": "apriori",
                                       "h_range": [-1.0, 0.0, 2.0]}]})
        for action in ("verify", "criteria"):
            assert _run(tmp_path, action, bad)[0] == 1

    def test_criteria_null_stands_for_default(self, tmp_path):
        cfg = {"problem": {"domain": BALL, "h": 0.25, "rhs": "(const 1)"},
               "criteria": {"eta_list": [1], "m": None, "h_range": None,
                            "a_sup": None}}
        assert _run(tmp_path, "criteria", cfg)[0] == 0

    @pytest.mark.parametrize("action", ["solve", "perron", "probe"])
    def test_alarm_not_above_boundary_sup_exit_one(self, tmp_path, capsys,
                                                    action):
        # the boundary nodes count in the alarm's max: an alarm at or
        # below sup|b| ended a solve that converges after one sweep
        cfg = {"problem": {"domain": BALL, "h": 0.125, "rhs": "(const -1)",
                           "boundary": {"constant": -30.0}},
               "solve": {"alarm_bound": 20.0},
               "perron": {"sub": {"constant": -31.0}}}
        code, out = _run(tmp_path, action, cfg)
        assert code == 1
        assert "alarm_bound 20.0 must exceed sup|b| = 30.0" \
            in capsys.readouterr().err
        assert not (out / "report.json").exists()
        cfg["solve"]["alarm_bound"] = 31.0
        assert _run(tmp_path, action, cfg)[0] == 0

    def test_sub_beyond_alarm_exit_one(self, tmp_path, capsys):
        # a start above the alarm is a config error, not a run that ends
        # diverged at its first sweep
        cfg = {"problem": {"domain": BALL, "h": 0.125, "rhs": "(const -1)",
                           "boundary": {"constant": 0.0}},
               "solve": {"alarm_bound": 20.0},
               "perron": {"sub": {"constant": -25.0}}}
        code, out = _run(tmp_path, "perron", cfg)
        assert code == 1
        assert "sub: max |u| = 25.0 over the non-exterior nodes is above " \
            "alarm_bound 20.0" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_probe_needs_alarm(self, tmp_path):
        cfg = {"problem": {"domain": BALL, "h": 0.125,
                           "rhs": "(const -1)",
                           "boundary": {"constant": 0.0}}}
        code, _ = _run(tmp_path, "probe", cfg)
        assert code == 1

    @pytest.mark.parametrize("action, section", [
        ("perron", {"perron": {"sub": {"cone": {
            "C": 1.0, "z": [0.0], "d": -1.0, "orientation": "sub"}}}}),
        ("verify", {"verify": {"checks": [
            {"type": "harnack", "h_sup_plus": 0.0, "z": [0.0],
             "r": 0.1}]}})])
    def test_centre_of_wrong_length_exit_one(self, tmp_path, capsys, action,
                                             section):
        # a one-coordinate z on the 2-D ball used to be read along x0 only
        cfg = dict({"problem": {"domain": BALL, "h": 0.125,
                                "rhs": "(const -1)",
                                "boundary": {"constant": 0.0}}}, **section)
        code, out = _run(tmp_path, action, cfg)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("inflap: error:")
        assert "z must have 2 coordinates" in err
        assert not (out / "report.json").exists()


class TestRadialAction:
    def test_profile_export(self, tmp_path):
        cfg = {"radial": {"m": "(exp t)", "ell": 0.0, "a": 1.0,
                          "prefactor": 1.0, "n": 400},
               "problem": {"domain": BALL, "h": 0.125}}
        code, out = _run(tmp_path, "radial", cfg)
        assert code == 0
        lines = (out / "profile.csv").read_text().splitlines()
        assert lines[0].startswith("# RADIALPROFILE a=")
        for tagged in ("a=", "l=", "R=", "prefactor="):
            assert tagged in lines[0]
        assert lines[1] == "r,phi"
        rep = json.loads((out / "report.json").read_text())
        assert float(rep["profile"]["ode_residual"]) < 1e-3

    def test_json_inverse_sqrt2_prefactor(self, tmp_path):
        # json.dumps(np.sqrt(0.5)) gives this value, one ulp above
        # 1/np.sqrt(2.0); it must read as the 1/sqrt(2) prefactor
        cfg = {"radial": {"m": "(exp t)", "ell": 0.0, "a": 1.0,
                          "prefactor": 0.7071067811865476, "n": 400}}
        code, out = _run(tmp_path, "radial", cfg)
        assert code == 0
        rep = json.loads((out / "report.json").read_text())["profile"]
        ref = build_profile(MonotoneRhs1D("(exp t)", 0.0), 1.0,
                            1.0 / np.sqrt(2.0), n=400)
        assert float(rep["prefactor"]) == pytest.approx(ref.prefactor,
                                                        rel=1e-12)
        assert float(rep["R"]) == pytest.approx(ref.R, rel=1e-11)


class TestFamilyAction:
    def test_family_member(self, tmp_path):
        cfg = {"problem": {"domain": {"kind": "ball",
                                      "center": [0.0, 0.0], "R": 1.0},
                           "h": 0.125},
               "family": {"gamma": 7.0, "k": 2, "n": 400}}
        code, out = _run(tmp_path, "family", cfg)
        assert code == 0
        rep = json.loads((out / "report.json").read_text())
        assert float(rep["family"]["R"]) == pytest.approx(1.0, abs=1e-8)
        sup = float(rep["family"]["sup_norm"])
        from inflap import family_a
        assert sup == pytest.approx(3.0 * family_a(7.0), rel=1e-4)

    def test_box_domain_exit_one(self, tmp_path, capsys):
        cfg = {"problem": {"domain": {"kind": "box", "lo": [0.0, 0.0],
                                      "hi": [1.0, 1.0]}, "h": 0.125},
               "family": {"gamma": 7.0, "n": 400}}
        code, out = _run(tmp_path, "family", cfg)
        assert code == 1
        assert "needs a ball domain" in capsys.readouterr().err
        assert not (out / "report.json").exists()


class TestCriteriaAction:
    def test_report_fields(self, tmp_path):
        cfg = {"problem": {"domain": BALL, "h": 0.125,
                           "rhs": "(neg (exp t))",
                           "rhs_monotone": "nonincreasing",
                           "boundary": {"constant": 0.0}},
               "criteria": {"eta_list": [0.5, 1.0], "a_sup": 0.5,
                            "eigen": True}}
        code, out = _run(tmp_path, "criteria", cfg)
        assert code == 0
        rep = json.loads((out / "report.json").read_text())["criteria"]
        assert len(rep["c_eta_table"]) == 2
        assert float(rep["diam_threshold"]) == pytest.approx(
            1.0151817887492676, rel=1e-9)
        verdicts = {v["theorem"]: v["status"] for v in rep["verdicts"]}
        # unit diameter sits below the 1.0152 threshold
        assert verdicts["diameter-threshold-existence"] == "applies"
        assert rep["eigen"] is not None

    def test_coefficient_in_m_skips_radius(self, tmp_path):
        # h = m(t) must be t-only; a (coef a) leaves the radius verdict out
        # instead of ending in a KeyError traceback
        cfg = {"problem": {"domain": BALL, "h": 0.25,
                           "rhs": "(neg (exp t))",
                           "rhs_monotone": "nonincreasing",
                           "boundary": {"constant": 0.0}},
               "criteria": {"eta_list": [1.0],
                            "m": "(mul (coef a) (exp t))"}}
        code, out = _run(tmp_path, "criteria", cfg)
        assert code == 0
        rep = json.loads((out / "report.json").read_text())["criteria"]
        assert rep["nonexistence_radius"] is None
        assert "nonexistence-radius" not in {
            v["theorem"] for v in rep["verdicts"]}
        # the report says why
        assert "has a coefficient" in rep["nonexistence_radius_skipped"]

    @pytest.mark.parametrize("m, skipped", [
        ("(exp t)", None), (None, None)])
    def test_radius_skip_reason(self, tmp_path, m, skipped):
        # without m the default is (neg f) = e^t for this nonincreasing f,
        # the h of the radial construction Delta_inf u = -h(u)
        cfg = {"problem": {"domain": BALL, "h": 0.25,
                           "rhs": "(neg (exp t))",
                           "rhs_monotone": "nonincreasing",
                           "boundary": {"constant": 0.0}},
               "criteria": dict({"eta_list": [1.0]},
                                **({"m": m} if m else {}))}
        code, out = _run(tmp_path, "criteria", cfg)
        assert code == 0
        rep = json.loads((out / "report.json").read_text())["criteria"]
        assert rep["nonexistence_radius_skipped"] is skipped
        assert 1.179 < float(rep["nonexistence_radius"]) < 1.180

    @pytest.mark.parametrize("monotone", ["nondecreasing", "none"])
    def test_radius_default_needs_nonincreasing_f(self, tmp_path, monotone):
        # f = e^u increases in u, so the comparison principle gives a
        # solution on any ball: the default m used to be f itself, and
        # the R = 1.5 ball reported the nonexistence radius as applying
        cfg = {"problem": {"domain": {"kind": "ball", "center": [0.0, 0.0],
                                      "R": 1.5},
                           "h": 0.125, "rhs": "(exp t)",
                           "rhs_monotone": monotone,
                           "boundary": {"constant": 0.0}},
               "criteria": {"eta_list": [1.0]}}
        code, out = _run(tmp_path, "criteria", cfg)
        assert code == 0
        rep = json.loads((out / "report.json").read_text())["criteria"]
        assert rep["nonexistence_radius"] is None
        assert "nonexistence-radius" not in {
            v["theorem"] for v in rep["verdicts"]}
        reason = rep["nonexistence_radius_skipped"]
        assert repr(monotone) in reason and "nonincreasing" in reason
        # the rest of the block stays
        assert rep["dd3"] is not None


class TestVerifyAction:
    def test_passing_checks_exit_zero(self, tmp_path):
        cfg = {"problem": {"domain": BALL, "h": 0.125, "rhs": "(const 1)",
                           "boundary": {"constant": 0.0}},
               "solve": {"tol": 1e-8},
               "verify": {"checks": [
                   {"type": "comparison", "rhs2": "(const -1)",
                    "mode": "strict-ordered-rhs"},
                   {"type": "apriori"},
                   {"type": "lipschitz"}]}}
        code, out = _run(tmp_path, "verify", cfg)
        assert code == 0
        rep = json.loads((out / "report.json").read_text())
        assert len(rep["checks"]) == 3
        assert all(c["status"] != "fail" for c in rep["checks"])

    def test_monotone_comparison_and_harnack(self, tmp_path):
        # f = t - clip(t, 1) vanishes on [-1, 1]; the boundary data x0 + 1
        # stays in [0.5, 1.5], below 2 but not below 1.2
        cfg = {"problem": {"domain": BALL, "h": 0.125,
                           "rhs": "(add t (neg (clip t 1)))",
                           "rhs_monotone": "nondecreasing",
                           "boundary": {"expression": "x0 + 1"}},
               "solve": {"tol": 1e-8},
               "verify": {"checks": [
                   {"type": "monotone-comparison", "v_constant": 2.0},
                   {"type": "monotone-comparison", "v_constant": 1.2},
                   {"type": "harnack", "h_sup_plus": 1.0,
                    "z": [0.0, 0.0], "r": 0.2}]}}
        code, out = _run(tmp_path, "verify", cfg)
        assert code == 0
        checks = json.loads((out / "report.json").read_text())["checks"]
        assert [c["status"] for c in checks] == [
            "pass", "undetermined", "pass"]
        assert checks[0]["details"]["hypothesis"] == "separated-boundary"
        for c in checks[:2]:
            assert (c["details"]["l_lower"], c["details"]["l_upper"]) \
                == (-1.0, 1.0)
        assert checks[2]["margin"] == pytest.approx(8.250773826049,
                                                    rel=1e-9)

    def test_failing_check_exit_two(self, tmp_path):
        # u solves f = -1 >= rhs2 = 1: the claimed ordering is backwards
        # and the comparison check must fail
        cfg = {"problem": {"domain": BALL, "h": 0.125, "rhs": "(const -1)",
                           "boundary": {"constant": 0.0}},
               "solve": {"tol": 1e-8},
               "verify": {"checks": [
                   {"type": "comparison", "rhs2": "(const 1)",
                    "mode": "strict-ordered-rhs"}]}}
        code, out = _run(tmp_path, "verify", cfg)
        assert code == 2
        rep = json.loads((out / "report.json").read_text())
        assert rep["checks"][0]["status"] == "fail"


class TestReportFormat:
    def test_floats_are_fixed_format(self, tmp_path):
        cfg = {"problem": {"domain": BALL, "h": 0.125, "rhs": "(const 1)",
                           "boundary": {"constant": 0.0}},
               "solve": {"tol": 1e-8}}
        _, out = _run(tmp_path, "solve", cfg)
        text = (out / "report.json").read_text()
        assert "e-" in text or "e+" in text
        sup = json.loads(text)["solve"]["sup"]
        assert isinstance(sup, str) or isinstance(sup, float)
        # keys are sorted at every level
        rep = json.loads(text)
        assert list(rep) == sorted(rep)
        assert list(rep["solve"]) == sorted(rep["solve"])


def _write_field_row_by_row(u, path):
    """`write_field` as it was before the block writer, kept as reference."""
    d = u.domain
    idx = np.argwhere(d.nonexterior)
    pts = idx * d.h + d.origin
    with open(path, "w") as fh:
        fh.write(",".join("x%d" % j for j in range(d.N)) + ",value\n")
        for p, i in zip(pts, idx):
            row = (["%.12e" % float(c) for c in p]
                   + ["%.12e" % float(u.values[tuple(i)])])
            fh.write(",".join(row) + "\n")


def _save_profile_row_by_row(profile, path):
    """`save_profile` as it was before the block writer, kept as reference."""
    with open(path, "w") as fh:
        fh.write("# RADIALPROFILE a=%.12e l=%.12e R=%.12e prefactor=%.12e\n"
                 % (profile.a, profile.ell, profile.R, profile.prefactor))
        fh.write("r,phi\n")
        for r, p in zip(profile.r, profile.phi):
            fh.write("%.12e,%.12e\n" % (r, p))


# values a CSV row must spell as before: signed zero, NaN, infinities and
# numbers near the bottom of the float range
_SPECIAL = [-0.0, 0.0, np.nan, np.inf, -np.inf, 1e-300, -1e-300, 5e-324]


def _with_specials(rng, n):
    vals = rng.normal(size=n) * 10.0 ** rng.integers(-20, 20, size=n)
    vals[rng.choice(n, size=4 * len(_SPECIAL), replace=False)] = \
        np.repeat(_SPECIAL, 4)
    return vals


class TestCsvWriters:
    """The block writers against frozen copies of the row-by-row ones."""

    @pytest.mark.parametrize("spec, h", [
        ({"kind": "box", "lo": [-0.5], "hi": [1.0]}, 1.0 / 1024),
        ({"kind": "ball", "center": [0.0, 0.0], "R": 1.0}, 1.0 / 32),
        ({"kind": "ball", "center": [0.1, 0.0, -0.2], "R": 1.0}, 1.0 / 8)])
    def test_field_bytes(self, tmp_path, spec, h):
        d = build_domain(spec, h)
        ne = d.nonexterior
        assert np.count_nonzero(ne) > 1024   # more than two blocks
        u = ScalarField.constant(d, 0.0)
        # written past ScalarField's finiteness check on purpose
        u.values[ne] = _with_specials(np.random.default_rng(23),
                                      np.count_nonzero(ne))
        write_field(u, tmp_path / "new.csv")
        _write_field_row_by_row(u, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() \
            == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("n", [1, 512, 513, 1300])
    def test_profile_bytes(self, tmp_path, n):
        rng = np.random.default_rng(n)
        prof = RadialProfile(r=np.sort(rng.uniform(0.0, 2.0, n)),
                             phi=(_with_specials(rng, n) if n > 40
                                  else rng.normal(size=n)),
                             a=-0.0, ell=np.nan, R=np.inf, prefactor=1e-300)
        save_profile(prof, tmp_path / "new.csv")
        _save_profile_row_by_row(prof, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() \
            == (tmp_path / "old.csv").read_bytes()
