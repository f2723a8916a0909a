"""Trace distance, overlap/contraction verifiers, Lipschitz sampling."""
import numpy as np
import pytest

from qdeq import bounds
from qdeq.bounds import (
    estimate_lipschitz,
    renormalization_shift,
    verify_amplitude_overlap,
    verify_angle_overlap,
    verify_contraction_bound,
    verify_trig_inequality,
    write_csv,
)
from qdeq.encoding import EncodingSpec, encode
from qdeq.measurement import BASIS_PROJECTOR, ObservableEnsemble
from qdeq.qmodel import QuantumModel, build_default_model

from oracle import amplitude_state, pauli_z_diagonals, trace_distance


def _random_state(rng, num_qubits):
    amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return amps / np.linalg.norm(amps)


def _unit(z):
    """The amplitude encoder's unit row for one input vector."""
    return encode(EncodingSpec("amplitude", 1, len(z)), z[None])[0][0]


class TestTraceDistance:
    """The oracle's pure-state trace distance, which ``test_saturating_orthogonal_pair`` reads."""

    def test_identical_states(self):
        s = _random_state(np.random.default_rng(0), 2)
        assert trace_distance(s, s) == 0.0

    def test_near_duplicate_states_small(self):
        s = _random_state(np.random.default_rng(5), 2)
        t = s * np.exp(1j * 1e-9)
        assert trace_distance(s, t) < 1e-7

    def test_orthogonal_states(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_matches_dense_eigenvalue_oracle(self):
        # half the trace norm of the rank-2 difference operator
        rng = np.random.default_rng(1)
        for num_qubits in (1, 2, 3):
            a, b = _random_state(rng, num_qubits), _random_state(rng, num_qubits)
            rho_a = np.outer(a, a.conj())
            rho_b = np.outer(b, b.conj())
            eigs = np.linalg.eigvalsh(rho_a - rho_b)
            assert abs(trace_distance(a, b) - 0.5 * np.abs(eigs).sum()) < 1e-10

    def test_metric_properties(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a, b, c = (_random_state(rng, 2) for _ in range(3))
            dab, dba = trace_distance(a, b), trace_distance(b, a)
            assert abs(dab - dba) < 1e-12
            assert trace_distance(a, b) + trace_distance(b, c) >= trace_distance(a, c) - 1e-12


class TestAmplitudeOverlap:
    def test_no_violations(self):
        report = verify_amplitude_overlap(2000, seed=0)
        assert report.violations == 0
        assert report.num_samples == 2000

    def test_identical_vectors_saturate_identity(self):
        z = np.array([0.6, 0.8])
        overlap = abs(np.vdot(_unit(z), _unit(z)))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_unit_distance_gives_half_overlap(self):
        # ||z - z'|| = 1 plugs into the identity as overlap = 1 - 1/2
        z = np.array([1.0, 0.0])
        w = np.array([0.5, np.sqrt(3) / 2])
        overlap = abs(np.vdot(_unit(z), _unit(w)))
        assert overlap == pytest.approx(0.5, abs=1e-12)

    def test_worst_margin_is_the_overlap_bound_margin(self):
        report = verify_amplitude_overlap(500, seed=3)
        z, w = bounds._amplitude_pairs(np.random.default_rng(3), 500, 16)
        overlap = np.abs(np.einsum("bi,bi->b", z, w))
        expected = (np.linalg.norm(z - w, axis=1) ** 2 - (1.0 - overlap**2)).min()
        assert report.worst_margin == pytest.approx(expected, rel=1e-9)
        assert report.worst_margin > 1e-6  # the bound's own margin, not the identity check's slack

    def test_identity_error_above_the_slack_is_a_violation(self, monkeypatch):
        overlaps = bounds._overlaps
        monkeypatch.setattr(bounds, "_overlaps", lambda spec, z, w: overlaps(spec, z, w) + 1e-9)
        assert verify_amplitude_overlap(200, seed=4).violations == 200


class TestAngleOverlap:
    def test_no_violations_and_csv_rows(self):
        report = verify_angle_overlap(500, seed=1)
        assert report.violations == 0
        assert len(report.samples_csv) == 500
        dist_sq, overlap, bound = report.samples_csv[0]
        assert bound == pytest.approx(1.0 - np.sin(dist_sq), abs=1e-12)
        assert overlap >= bound - 1e-12

    def test_identical_vectors(self):
        # d = 0: overlap 1 >= 1 - sin(0)
        report = verify_angle_overlap(50, seed=2)
        assert report.worst_margin >= -1e-12

    def test_csv_writing(self, tmp_path):
        report = verify_angle_overlap(20, seed=3)
        path = tmp_path / "scatter.csv"
        write_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "dist_sq,overlap,bound"
        assert len(lines) == 21

    def test_report_without_table_rejects_write(self, tmp_path):
        report = verify_trig_inequality(10, seed=0)
        with pytest.raises(Exception):
            write_csv(report, tmp_path / "x.csv")


class TestTrigInequality:
    def test_boundary_equality(self):
        assert (1 - np.sin(0.0)) * (1 - np.sin(0.0)) == pytest.approx(1.0 - np.sin(0.0))

    def test_half_half_values(self):
        left = (1 - np.sin(0.5)) ** 2
        right = 1 - np.sin(1.0)
        assert left == pytest.approx(0.27099776985752416, abs=1e-12)
        assert right == pytest.approx(0.15852901519210349, abs=1e-12)
        assert left >= right

    def test_no_violations_on_composition_domain(self):
        report = verify_trig_inequality(20000, seed=4)
        assert report.violations == 0

    def test_unit_square_counterexample(self):
        # the inequality flips sign past a = b = 2*atan(1/2); the composition
        # argument never reaches that region because a + b <= 1 there
        a = b = 0.99
        left = (1 - np.sin(a)) * (1 - np.sin(b))
        right = 1 - np.sin(a + b)
        assert left < right
        report = verify_trig_inequality(20000, seed=4, domain="unit_square")
        assert report.violations > 0


class TestContractionBound:
    def test_identical_inputs_zero_delta(self):
        model = build_default_model("amplitude", 2, 4, seed=0, random_ops=6)
        z = np.array([[0.5, 0.5, 0.5, 0.5]])
        e = model.expectations(z, np.zeros_like(z))
        again = model.expectations(z.copy(), np.zeros_like(z))
        assert np.abs(e - again).max() == 0.0

    def test_saturating_orthogonal_pair(self):
        # |0> vs |1> under Z: delta = 2, trace distance = 1, bound tight
        a = amplitude_state(np.array([1.0, 0.0]), 1)
        b = amplitude_state(np.array([0.0, 1.0]), 1)
        z = pauli_z_diagonals(1)[0]
        delta = abs(z @ np.abs(a) ** 2 - z @ np.abs(b) ** 2)
        assert delta == pytest.approx(2.0, abs=1e-12)
        assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)
        assert delta <= 2.0 * trace_distance(a, b) + 1e-12

    def test_pauli_model_no_violations(self):
        model = build_default_model("amplitude", 4, 16, seed=1)
        report = verify_contraction_bound(model, 1500, seed=5)
        assert report.violations == 0

    def test_angle_model_no_violations(self):
        model = build_default_model("angle", 4, 16, seed=2)
        report = verify_contraction_bound(model, 800, seed=6)
        assert report.violations == 0

    def test_projector_model_tighter_bound(self):
        from qdeq.qmodel import build_block4

        circuit, theta = build_block4(4, random_ops=10)
        model = QuantumModel(
            encoding=EncodingSpec("amplitude", 4, 16),
            circuit=circuit,
            theta=theta,
            ensemble=ObservableEnsemble(BASIS_PROJECTOR, (0, 3, 5, 9)),
        )
        report = verify_contraction_bound(model, 800, seed=7)
        assert report.violations == 0


class TestRenormalizationShift:
    def test_reports_both_shrinking_and_growing_pairs(self):
        # normalization genuinely changes distances in both directions; the
        # diagnostic observes that rather than asserting a bound
        stats = renormalization_shift(5000, seed=0)
        assert stats["num_pairs"] == 5000
        assert stats["min_ratio"] < 1.0 < stats["max_ratio"]
        assert 0.0 < stats["expanded_fraction"] < 1.0
        assert np.isfinite(stats["mean_ratio"])


class TestLipschitz:
    def test_constant_model_is_zero(self):
        class Constant:
            input_dim = 4

            def forward_batch(self, Z, X):
                return np.ones_like(np.atleast_2d(Z))

        assert estimate_lipschitz(Constant(), 100, seed=0) == 0.0

    def test_subcontraction_in_max_norm(self):
        # unit-far pairs in the max norm never expand for default Pauli-Z models
        for encoding in ("amplitude", "angle"):
            for seed in (0, 1):
                model = build_default_model(encoding, 4, 16, seed=seed)
                ratio = estimate_lipschitz(model, 400, norm="max", constraint="unit_far", seed=seed)
                assert ratio <= 1.0 + 1e-9

    def test_linear_layer_recovers_spectral_norm_bound(self):
        rng = np.random.default_rng(8)
        A = rng.normal(size=(8, 8))

        class Linear:
            input_dim = 8

            def forward_batch(self, Z, X):
                return np.atleast_2d(Z) @ A.T

        sampled = estimate_lipschitz(Linear(), 4000, norm="l2", seed=9)
        sigma_max = np.linalg.svd(A, compute_uv=False)[0]
        assert sampled <= sigma_max * (1 + 1e-9)
        assert sampled >= 0.7 * sigma_max

    def test_invalid_arguments(self):
        model = build_default_model("amplitude", 2, 4, seed=0, random_ops=4)
        with pytest.raises(Exception):
            estimate_lipschitz(model, 10, norm="l7")
        with pytest.raises(Exception):
            estimate_lipschitz(model, 10, constraint="nearby")
