import numpy as np
import pytest

from oversmooth import (
    DomainError,
    FilterSpec,
    OperatorKind,
    build,
    eigendecompose,
    energy_via_superposition,
    make_graph,
    superposition,
)
from oversmooth.energy import quadratic_form
from oversmooth.spectral import (
    energy_direct,
    energy_regular_reduction,
    energy_via_superposition_reference,
    frequency_mass,
)

from conftest import random_connected_graph


class TestEigendecompose:
    def test_p3_unnormalized_spectrum(self, p3):
        dec = eigendecompose(build(p3, OperatorKind.UNNORMALIZED_LAPLACIAN))
        np.testing.assert_allclose(dec.eigenvalues, [0.0, 1.0, 3.0], atol=1e-12)

    def test_orthonormality_and_reconstruction(self, pendant_triangle):
        op = build(pendant_triangle, OperatorKind.NORMALIZED_LAPLACIAN)
        dec = eigendecompose(op)
        q = dec.eigenvectors
        np.testing.assert_allclose(q.T @ q, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(
            (q * dec.eigenvalues[None, :]) @ q.T, op.matrix, atol=1e-12
        )

    def test_sign_convention_matches_per_column_rule(self, k4, pendant_triangle):
        cycle4 = make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        tied = 0
        for g in (cycle4, k4, pendant_triangle):
            for kind in (OperatorKind.UNNORMALIZED_LAPLACIAN, OperatorKind.NORMALIZED_LAPLACIAN):
                op = build(g, kind)
                _, want = np.linalg.eigh(op.matrix)
                for b in range(want.shape[1]):
                    mags = np.abs(want[:, b])
                    tied += int(np.sum(mags == mags.max()) > 1)
                    pivot = int(np.argmax(mags))
                    if want[pivot, b] < 0:
                        want[:, b] = -want[:, b]
                assert eigendecompose(op).eigenvectors.tobytes() == want.tobytes()
        assert tied > 0  # columns whose largest magnitude is attained more than once

    def test_normalized_kernel_eigenvector(self, pendant_triangle):
        dec = eigendecompose(build(pendant_triangle, OperatorKind.NORMALIZED_LAPLACIAN))
        assert dec.eigenvalues[0] == pytest.approx(0.0, abs=1e-12)
        want = np.sqrt(pendant_triangle.degrees)
        want /= np.linalg.norm(want)
        got = dec.eigenvectors[:, 0]
        assert min(np.abs(got - want).max(), np.abs(got + want).max()) <= 1e-9

    @pytest.mark.parametrize("edges,n", [([(0, 1), (1, 2)], 3),
                                         ([(0, 1), (1, 2), (2, 3), (0, 3)], 4)])
    def test_bipartite_propagation_has_minus_one(self, edges, n):
        g = make_graph(n, edges)
        dec = eigendecompose(build(g, OperatorKind.NORMALIZED_ADJACENCY))
        assert np.abs(dec.eigenvalues + 1.0).min() <= 1e-9

    def test_deterministic_sign_convention(self, pendant_triangle):
        op = build(pendant_triangle, OperatorKind.UNNORMALIZED_LAPLACIAN)
        a = eigendecompose(op).eigenvectors
        b = eigendecompose(op).eigenvectors
        np.testing.assert_array_equal(a, b)


class TestSuperposition:
    def test_self_overlap_is_identity(self, pendant_triangle):
        dec = eigendecompose(build(pendant_triangle, OperatorKind.UNNORMALIZED_LAPLACIAN))
        s = superposition(dec, dec).entries
        np.testing.assert_allclose(s, np.eye(4), atol=1e-12)

    def test_commuting_case_is_cluster_diagonal(self, k4):
        # On a regular graph the two Laplacians share eigenspaces, so overlap
        # mass appears only between matching eigenvalue clusters.
        dn = eigendecompose(build(k4, OperatorKind.NORMALIZED_LAPLACIAN))
        d = eigendecompose(build(k4, OperatorKind.UNNORMALIZED_LAPLACIAN))
        s = superposition(dn, d).entries
        np.testing.assert_allclose(s @ s.T, np.eye(4), atol=1e-12)
        for a in range(4):
            for b in range(4):
                if abs(3.0 * dn.eigenvalues[a] - d.eigenvalues[b]) > 1e-8:
                    assert abs(s[a, b]) <= 1e-10

    def test_noncommuting_case_scatters_rows(self, pendant_triangle):
        dn = eigendecompose(build(pendant_triangle, OperatorKind.NORMALIZED_LAPLACIAN))
        d = eigendecompose(build(pendant_triangle, OperatorKind.UNNORMALIZED_LAPLACIAN))
        s = superposition(dn, d).entries
        assert any(np.sum(np.abs(s[a]) > 0.1) >= 2 for a in range(4))

    def test_dimension_mismatch_rejected(self, p3, k4):
        a = eigendecompose(build(p3, OperatorKind.UNNORMALIZED_LAPLACIAN))
        b = eigendecompose(build(k4, OperatorKind.UNNORMALIZED_LAPLACIAN))
        with pytest.raises(DomainError):
            superposition(a, b)


class TestFilterSpec:
    def test_exactly_one_mode_required(self):
        with pytest.raises(DomainError):
            FilterSpec(coefficients=(1.0,), propagation_power=2)
        with pytest.raises(DomainError):
            FilterSpec()

    def test_negative_power_rejected(self):
        with pytest.raises(DomainError):
            FilterSpec.power_of_propagation(-1)

    def test_polynomial_evaluation(self):
        f = FilterSpec.polynomial([1.0, 0.0, 2.0])  # 1 + 2x^2
        np.testing.assert_allclose(f.evaluate([0.0, 1.0, 2.0]), [1.0, 3.0, 9.0])

    def test_propagation_power_evaluation(self):
        f = FilterSpec.power_of_propagation(3)
        np.testing.assert_allclose(f.evaluate([0.0, 0.5, 2.0]), [1.0, 0.125, -1.0])


class TestEnergyExpansion:
    def test_identity_filter_recovers_plain_energy(self, pendant_triangle):
        x = np.random.default_rng(2).standard_normal((4, 3))
        f = FilterSpec.polynomial([1.0])
        delta = build(pendant_triangle, OperatorKind.UNNORMALIZED_LAPLACIAN)
        want = quadratic_form(delta, x)
        assert energy_via_superposition(pendant_triangle, x, f) == pytest.approx(want, rel=1e-10)

    def test_regular_reduction_matches(self, k4):
        x = np.random.default_rng(4).standard_normal((4, 2))
        for k in range(4):
            f = FilterSpec.power_of_propagation(k)
            full = energy_via_superposition(k4, x, f)
            reduced = energy_regular_reduction(k4, x, f)
            assert full == pytest.approx(reduced, rel=1e-8, abs=1e-12)

    def test_pendant_triangle_power_filter_matches_direct(self, pendant_triangle):
        x = np.random.default_rng(6).standard_normal((4, 3))
        f = FilterSpec.power_of_propagation(2)
        assert energy_via_superposition(pendant_triangle, x, f) == pytest.approx(
            energy_direct(pendant_triangle, x, f), rel=1e-10
        )

    def test_contraction_equals_literal_reference(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            g = random_connected_graph(rng, int(rng.integers(3, 9)))
            x = rng.standard_normal((g.n_nodes, 2))
            f = FilterSpec.polynomial(rng.standard_normal(int(rng.integers(1, 4))))
            fast = energy_via_superposition(g, x, f)
            slow = energy_via_superposition_reference(g, x, f)
            assert fast == pytest.approx(slow, rel=1e-9, abs=1e-9)

    def test_literal_reference_size_limit(self):
        rng = np.random.default_rng(14)
        g = random_connected_graph(rng, 13, 0.4)
        with pytest.raises(DomainError):
            energy_via_superposition_reference(g, np.ones(13), FilterSpec.polynomial([1.0]))

    def test_reduction_rejects_nonregular(self, pendant_triangle):
        with pytest.raises(DomainError):
            energy_regular_reduction(pendant_triangle, np.ones(4), FilterSpec.polynomial([1.0]))

    def test_frequency_scattering_on_nonregular_graph(self, pendant_triangle):
        # A pure eigenvector of one Laplacian spreads its energy over several
        # frequencies of the other when the two operators do not commute.
        dn = eigendecompose(build(pendant_triangle, OperatorKind.NORMALIZED_LAPLACIAN))
        d = eigendecompose(build(pendant_triangle, OperatorKind.UNNORMALIZED_LAPLACIAN))
        x = dn.eigenvectors[:, -1]  # top-frequency eigenvector
        comps = d.eigenvalues * frequency_mass(x, d)  # energy per frequency of Delta
        assert np.count_nonzero(comps > 1e-10) >= 2


class TestDispersionAndFrequencies:
    def test_eigenvector_has_zero_dispersion(self, p3):
        dec = eigendecompose(build(p3, OperatorKind.UNNORMALIZED_LAPLACIAN))
        mass = frequency_mass(dec.eigenvectors[:, 2], dec)
        assert mass[2] == pytest.approx(1.0, rel=1e-12)
        assert np.delete(mass, 2).max() <= 1e-12

    def test_k4_kernels_coincide(self, k4):
        dec = eigendecompose(build(k4, OperatorKind.UNNORMALIZED_LAPLACIAN))
        mass = frequency_mass(np.sqrt(k4.degrees), dec)
        assert mass[1:].max() <= 1e-12 * mass.sum()

    def test_pendant_triangle_kernel_mismatch_disperses(self, pendant_triangle):
        dec = eigendecompose(build(pendant_triangle, OperatorKind.UNNORMALIZED_LAPLACIAN))
        mass = frequency_mass(np.sqrt(pendant_triangle.degrees), dec)
        assert np.count_nonzero(mass > 1e-12 * mass.sum()) >= 2

    def test_p3_top_eigenvector_single_component(self, p3):
        dec = eigendecompose(build(p3, OperatorKind.UNNORMALIZED_LAPLACIAN))
        comps = dec.eigenvalues * frequency_mass(dec.eigenvectors[:, 2], dec)
        nonzero = np.flatnonzero(comps > 1e-12)
        assert nonzero.tolist() == [2]
        assert dec.eigenvalues[2] == pytest.approx(3.0, abs=1e-12)
        assert comps[2] == pytest.approx(3.0, rel=1e-12)

    def test_kernel_signal_has_no_energy(self, pendant_triangle):
        dec = eigendecompose(build(pendant_triangle, OperatorKind.UNNORMALIZED_LAPLACIAN))
        comps = dec.eigenvalues * frequency_mass(np.ones(4), dec)
        assert comps.max() <= 1e-12

    def test_components_sum_to_quadratic_form(self, pendant_triangle):
        x = np.random.default_rng(8).standard_normal((4, 3))
        op = build(pendant_triangle, OperatorKind.UNNORMALIZED_LAPLACIAN)
        dec = eigendecompose(op)
        total = float(np.sum(dec.eigenvalues * frequency_mass(x, dec)))
        assert total == pytest.approx(quadratic_form(op, x), rel=1e-10)

    def test_frequency_mass_is_parseval(self, pendant_triangle):
        x = np.random.default_rng(9).standard_normal((4, 2))
        dec = eigendecompose(build(pendant_triangle, OperatorKind.UNNORMALIZED_LAPLACIAN))
        assert frequency_mass(x, dec).sum() == pytest.approx(float(np.sum(x * x)), rel=1e-12)
