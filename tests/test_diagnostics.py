import dataclasses
import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fredstab import (BranchKernel, build_transform, closed_loop_matrix,
                      compactness_proxy, fit_decay, gain_trend, make_report,
                      random_state, secular_match_error,
                      simulate_closed_loop, solve_gains_direct,
                      spectrum_match_error, synthesize_feedback)
from fredstab.diagnostics import PLOT_HEIGHT, PLOT_WIDTH, REPORT_SCHEMA, svg_line_plot
from fredstab.jsonio import (canonical_json, config_hash, cpairs, from_cpairs, overwrite,
                             write_json)
from fredstab.models import gribov_model, heat_torus_model
from fredstab.synthesis import inverse_gap_sum_profile

from conftest import heat_branch, kernels, schrodinger_branch


def dense_proxy(kernel, r, eps):
    """Dense oracle: the SVD norm of diag(n^(r+eps)) (C - I / lam) diag(n^-r)."""
    S_c = kernel.C.copy()
    np.fill_diagonal(S_c, 0.0)
    n = np.arange(1, kernel.branch.N + 1, dtype=float)
    return float(np.linalg.norm((n[:, None] ** (r + eps)) * S_c * (n[None, :] ** -r), 2))


class TestCompactnessProxy:
    def test_single_mode_zero(self):
        from fredstab import SpectralBranch
        br = SpectralBranch(1, [-1.0], [1.0], alpha=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert compactness_proxy(BranchKernel(br, 2.0), 0.0, 0.4) == 0.0

    @pytest.mark.parametrize("branch, r", [
        (heat_torus_model(96).branches[0], 0.0),
        (heat_torus_model(96).branches[0], 0.5),
        (schrodinger_branch(128), 0.0),
        (gribov_model(96).branches[0], 0.0)],
        ids=["heat", "heat-r0.5", "schrodinger", "gribov"])
    def test_matches_dense_svd(self, branch, r):
        kernel = BranchKernel(branch, 2.5)
        eps = min((branch.alpha - 1.0) / 2.0, branch.alpha + r - 0.5) / 2.0
        estimate = compactness_proxy(kernel, r, eps)
        assert estimate == pytest.approx(dense_proxy(kernel, r, eps), rel=1e-12, abs=0)

    def test_two_calls_equal_bits(self):
        kernel = BranchKernel(schrodinger_branch(64), 2.5)
        first = compactness_proxy(kernel, 0.0, 0.25)
        assert np.float64(first).tobytes() == np.float64(
            compactness_proxy(kernel, 0.0, 0.25)).tobytes()

    def test_bounded_in_truncation(self):
        norms = {}
        for N in (64, 128):
            norms[N] = compactness_proxy(BranchKernel(heat_branch(N), 2.5), 0.0, 0.4)
        assert norms[128] / norms[64] <= 1.5

    def test_eps_boundary_rejected(self):
        with pytest.raises(ValueError, match="open interval"):
            compactness_proxy(BranchKernel(heat_branch(8), 2.5), 0.0, 0.5)


class TestGainTrend:
    def test_minimum_size(self):
        g = solve_gains_direct(heat_branch(8), 2.5)
        with pytest.raises(ValueError, match="N >= 16"):
            gain_trend(g)

    def test_sup_identity(self):
        g = solve_gains_direct(heat_branch(64), 2.5)
        trend = gain_trend(g)
        assert trend.sup_product <= 2.5 + trend.sup_correction + 1e-12

    def test_quartile_ratio_matches_median_oracle(self):
        g = solve_gains_direct(heat_branch(256), 2.5)
        trend = gain_trend(g)
        d = np.abs(g.products - 2.5)
        oracle = np.median(d[192:]) / np.median(d[:64])
        assert trend.quartile_ratio == pytest.approx(oracle, rel=1e-12)

    def test_cubic_spectrum_corrections_decay(self):
        # fast eigenvalue growth separates the modes: the correction
        # profile decays and the tail/head ratio drops far below one
        system = gribov_model(256)
        g = solve_gains_direct(system.branches[0], 2.5)
        trend = gain_trend(g)
        assert trend.quartile_ratio < 0.5

    def test_gain_structure_in_separated_spectrum_regime(self):
        # with cubic eigenvalue growth the shift sits far from every
        # difference, so all three boundedness signatures hold at once:
        # small gain corrections, decaying trend, convergent iteration
        from fredstab import solve_gains_iterative
        lam = 2.5
        br = gribov_model(256).branches[0]
        direct = solve_gains_direct(br, lam)
        trend = gain_trend(direct)
        assert trend.sup_product <= 2 * lam
        assert trend.quartile_ratio < 0.5
        iterative = solve_gains_iterative(BranchKernel(br, lam))
        assert np.max(np.abs(iterative.products - direct.products)) <= 1e-8


class TestSpectrumMatch:
    def test_exact_match_zero(self):
        br = heat_branch(16)
        cl = closed_loop_matrix(br, solve_gains_direct(br, 2.5))
        err = spectrum_match_error(cl.spectrum, br.eigenvalues, 2.5)
        assert err <= 1e-9

    def test_detects_mismatch(self):
        br = heat_branch(4)
        fake = br.eigenvalues - 2.5
        fake = fake + np.array([0.1, 0, 0, 0])
        err = spectrum_match_error(fake, br.eigenvalues, 2.5)
        assert err > 0.01


class TestMakeReport:
    def pipeline(self, N=16):
        system = heat_torus_model(N)
        law = synthesize_feedback(kernels(system, 2.5))
        ks = kernels(system, law.lam)
        certs = [build_transform(k, law.branch(k.branch.index)) for k in ks]
        return system, law, ks, certs

    def test_full_report_sections(self):
        system, law, ks, certs = self.pipeline()
        br = system.branches[0]
        _, tail_max = inverse_gap_sum_profile(BranchKernel(br, 2.5))
        trace = simulate_closed_loop(ks, law, random_state(system),
                                     np.linspace(0, 2, 33))
        certs[0] = dataclasses.replace(certs[0], conditioning={0.0: 5.0})
        fit = fit_decay(trace.times, trace.norms[0.0])
        doc = make_report(system, law, certs, ks[0], {"lin": fit, "short": None}, {"N": 16})
        assert doc["schema"] == REPORT_SCHEMA
        assert doc["lambda"] == 2.5
        assert doc["spectrum_match_error"] == max(
            secular_match_error(b, c) for b, c in zip(system.branches, certs))
        assert doc["spectrum_match_error"] <= 1e-8
        assert doc["tb_residual"] <= 1e-10
        assert doc["conditioning"] == {"0": 5.0}
        assert doc["gap_sum_tail_max"] == tail_max
        assert doc["decay_fits"]["lin"]["mu_hat"] > 0
        assert doc["decay_fits"]["short"] is None
        assert doc["classification"]["labels"] == ["classical"]
        assert doc["config_hash"] == config_hash({"N": 16})

    def test_simulation_sections_absent_when_not_run(self):
        system, law, ks, certs = self.pipeline(8)
        doc = make_report(system, law, certs, ks[0], None, {})
        assert doc["decay_fits"] is None
        assert doc["conditioning"] == {}
        assert doc["gain_profile"]["per_branch"] == [None, None]    # N < 16

    def test_roundtrip_bit_identical(self):
        system, law, ks, certs = self.pipeline(8)
        text = canonical_json(make_report(system, law, certs, ks[0], None, {"seed": 1}))
        assert canonical_json(json.loads(text)) == text


_FINITE = st.floats(allow_nan=False, allow_infinity=False)   # subnormals and -0.0 too
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
_JSON_DOCS = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), _FINITE, st.text(max_size=8),
              st.complex_numbers(allow_nan=False, allow_infinity=False)),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.dictionaries(st.text(max_size=6), children,
                                               max_size=4)),
    max_leaves=24)


class TestCanonicalJson:
    def test_sorted_keys_and_float_format(self):
        text = canonical_json({"b": 0.1, "a": 2})
        assert text == '{"a":2,"b":0.1}'

    @pytest.mark.parametrize("x", [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                                   1e16, 1e22, 9007199254740992.0, 0.1, -0.0])
    def test_float_text_is_repr_and_round_trips(self, x):
        text = canonical_json([x])
        assert text == f"[{x!r}]"
        assert json.loads(text)[0].hex() == x.hex()

    @PROPERTY
    @given(xs=st.lists(_FINITE, max_size=16))
    def test_floats_round_trip_bit_for_bit(self, xs):
        back = json.loads(canonical_json(xs))
        assert [v.hex() for v in back] == [v.hex() for v in xs]

    @PROPERTY
    @given(parts=st.lists(st.tuples(_FINITE, _FINITE), max_size=16))
    def test_complex_pairs_round_trip_bit_for_bit(self, parts):
        z = np.empty(len(parts), dtype=complex)
        z.real = [re for re, _ in parts]
        z.imag = [im for _, im in parts]
        back = from_cpairs(json.loads(canonical_json(cpairs(z))), "pairs")
        assert back.view(np.uint64).tolist() == z.view(np.uint64).tolist()

    def test_write_json_failure_keeps_the_file(self, tmp_path):
        path = tmp_path / "report.json"
        write_json(path, {"ok": 1.0})
        before = path.read_bytes()
        with pytest.raises(ValueError, match="non-finite"):
            write_json(path, {"ok": float("nan")})
        assert path.read_bytes() == before

    def test_numpy_types(self):
        text = canonical_json({"x": np.float64(1.5), "n": np.int64(3),
                               "z": np.complex128(1 + 2j)})
        assert text == '{"n":3,"x":1.5,"z":[1.0,2.0]}'

    def test_idempotent_through_parse(self):
        doc = {"values": [1.0, 1e-17, 3.14159265358979], "name": "x"}
        text = canonical_json(doc)
        assert canonical_json(json.loads(text)) == text

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            canonical_json({"x": float("nan")})

    @settings(max_examples=300, deadline=None)
    @given(doc=_JSON_DOCS)
    def test_parse_is_a_fixed_point(self, doc):
        text = canonical_json(doc)
        assert canonical_json(json.loads(text)) == text

    @settings(max_examples=100, deadline=None)
    @given(doc=_JSON_DOCS, bad=st.sampled_from([float("nan"), float("inf"), float("-inf")]),
           where=st.sampled_from(["list", "dict", "complex real", "complex imag"]))
    def test_nonfinite_anywhere_rejected(self, doc, bad, where):
        leaf = {"list": [doc, bad], "dict": {"doc": doc, "bad": bad},
                "complex real": [doc, complex(bad, 0.0)],
                "complex imag": [doc, complex(0.0, bad)]}[where]
        with pytest.raises(ValueError, match="non-finite"):
            canonical_json({"wrapped": leaf})


class TestOverwrite:
    NEW = "t,re\r\n0.5,-1.25\r\n"

    @pytest.mark.parametrize("stale", [None, "x" * 4096, "ab\n"],
                             ids=["fresh", "longer-stale", "shorter-stale"])
    def test_file_holds_exactly_the_new_bytes(self, tmp_path, stale):
        path = tmp_path / "trace.csv"
        if stale is not None:
            path.write_text(stale)
        with overwrite(path, newline="") as fh:
            fh.write(self.NEW)
        assert path.read_bytes() == self.NEW.encode()

    def test_utf8_text_without_a_newline_argument(self, tmp_path):
        path = tmp_path / "plot.svg"
        path.write_text("y" * 64)
        with overwrite(path) as fh:
            fh.write("<svg>\n\u2013</svg>\n")
        assert path.read_bytes() == "<svg>\n\u2013</svg>\n".encode("utf-8")

    def test_body_that_raises_leaves_the_bytes_written_before(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("z" * 4096)
        with pytest.raises(RuntimeError, match="midway"):
            with overwrite(path) as fh:
                fh.write('{"partial":')
                raise RuntimeError("midway")
        assert path.read_bytes() == b'{"partial":'

    def test_opens_without_truncating(self, tmp_path, monkeypatch):
        flags, os_open = [], os.open

        def spy(path, flag, mode=0o777, **kwargs):
            flags.append(flag)
            return os_open(path, flag, mode, **kwargs)

        monkeypatch.setattr(os, "open", spy)
        path = tmp_path / "law.json"
        path.write_text("stale " * 100)
        write_json(path, {"a": 1})
        with overwrite(tmp_path / "sweep.csv", newline="") as fh:
            fh.write("N\r\n")
        assert len(flags) == 2
        assert all(flag & os.O_CREAT and flag & os.O_WRONLY and not flag & os.O_TRUNC
                   for flag in flags)
        assert path.read_bytes() == b'{"a":1}\n'


class TestSvgPlot:
    def test_emits_svg_with_embedded_data(self, tmp_path):
        path = tmp_path / "plot.svg"
        x = np.linspace(0, 1, 16)
        svg_line_plot(path, {"decay": (x, np.exp(-3 * x))},
                      "test plot", "t", "norm", logy=True)
        text = path.read_text()
        assert text.startswith('<?xml version="1.0"')
        assert "<svg xmlns" in text
        assert "data table" in text
        assert "polyline" in text
        assert text.rstrip().endswith("</svg>")

    def test_data_rows_are_plain_floats(self, tmp_path):
        # numpy scalars once leaked their repr, "np.float64(0.0)", into the table
        path = tmp_path / "plot.svg"
        x = np.linspace(0, 1, 16)
        svg_line_plot(path, {"a": (x, np.exp(-3 * x)), "b": (x, 1.0 + x ** 2)},
                      "test plot", "t", "norm")
        text = path.read_text()
        table = text[text.index("<!-- data table") + 1:text.index("-->")]
        rows = [line.strip() for line in table.splitlines()[1:]
                if line.strip() and not line.strip().startswith("series:")]
        assert len(rows) == 32
        for row in rows:
            xv, yv = row.split(",")
            float(xv), float(yv)
        assert rows[1] == f"{float(x[1])!r},{float(np.exp(-3 * x[1]))!r}"

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
                    min_size=1, max_size=40), st.booleans())
    def test_polyline_has_the_bytes_of_the_scalar_route(self, tmp_path_factory, pairs, logy):
        # the points, computed on whole arrays, round as the scalar map of
        # each (x, y) pair that they replaced
        path = tmp_path_factory.mktemp("svg") / "plot.svg"
        x, y = np.array(pairs).T
        svg_line_plot(path, {"a": (x, y)}, "t", "x", "y", logy=logy)
        text = path.read_text()
        table = text[text.index("series: a") + len("series: a"):text.index("-->")].split()
        kept = np.array([[float(v) for v in row.split(",")] for row in table]).reshape(-1, 2)
        xs, ys = (kept if len(kept) else np.zeros((1, 2))).T     # no point kept: the zero axes
        x_lo, x_hi, y_lo, y_hi = float(xs.min()), float(xs.max()), float(ys.min()), float(ys.max())
        x_hi, y_hi = (x_lo + 1.0 if x_hi == x_lo else x_hi), (y_lo + 1.0 if y_hi == y_lo else y_hi)
        margin, width, height = 60, PLOT_WIDTH, PLOT_HEIGHT
        want = " ".join(
            f"{margin + (xv - x_lo) / (x_hi - x_lo) * (width - 2 * margin):.2f},"
            f"{height - margin - (yv - y_lo) / (y_hi - y_lo) * (height - 2 * margin):.2f}"
            for xv, yv in kept)             # numpy scalars, one pair at a time
        assert f'<polyline points="{want}"' in text
