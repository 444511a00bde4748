import numpy as np
import pytest

import membrane as mb
from membrane.convergence import StudySpec
from membrane.errors import ConfigError, MaterialError
from membrane.material import VOIGT_COMPONENTS, validate_elastic_matrix

from conftest import orthotropic_gpa


class TestIsotropic:
    def test_d11_hand_value(self):
        # E(1-nu)/((1+nu)(1-2nu)) = 200e9*0.7/(1.3*0.4)
        d = mb.isotropic(200e9, 0.3)
        assert d[0, 0] == pytest.approx(2.6923076923076923e11, rel=1e-12)

    def test_off_diagonal_and_shear(self):
        d = mb.isotropic(200e9, 0.3)
        c = 200e9 / (1.3 * 0.4)
        mu = 200e9 / 2.6
        assert d[0, 1] == pytest.approx(c * 0.3, rel=1e-12)
        for k in (3, 4, 5):
            assert d[k, k] == pytest.approx(mu, rel=1e-12)

    def test_symmetric_and_pd(self):
        d = mb.isotropic(70e9, 0.33)
        assert np.array_equal(d, d.T)
        validate_elastic_matrix(d)

    def test_normal_block_structure(self):
        d = mb.isotropic(1.0, 0.25)
        assert d[0, 0] == d[1, 1] == d[2, 2]
        assert d[0, 1] == d[0, 2] == d[1, 2]
        assert (d[:3, 3:] == 0).all()
        assert (d[3:, :3] == 0).all()

    @pytest.mark.parametrize("E,nu", [(-1.0, 0.3), (0.0, 0.3), (1.0, 0.5), (1.0, -1.0)])
    def test_invalid_parameters_rejected(self, E, nu):
        with pytest.raises(MaterialError):
            mb.isotropic(E, nu)


class TestAnisotropic:
    def test_orthotropic_sample_is_pd(self):
        validate_elastic_matrix(orthotropic_gpa())

    def test_upper_entries_symmetrized(self):
        full = orthotropic_gpa()
        upper = full[np.triu_indices(6)]
        d = mb.anisotropic(upper)
        np.testing.assert_array_equal(d, full)
        np.testing.assert_array_equal(d[0], d[:, 0])

    def test_matches_isotropic_when_fed_its_upper_triangle(self):
        iso = mb.isotropic(200e9, 0.3)
        upper = iso[np.triu_indices(6)]
        np.testing.assert_array_equal(mb.anisotropic(upper), iso)

    def test_wrong_length_rejected(self):
        with pytest.raises(MaterialError):
            mb.anisotropic(np.ones(20))

    def test_indefinite_matrix_names_eigenvalue(self):
        d = np.eye(6)
        d[5, 5] = -2.0
        with pytest.raises(MaterialError, match="-2"):
            validate_elastic_matrix(d)

    def test_asymmetric_matrix_rejected(self):
        d = np.eye(6)
        d[0, 1] = 1e-3
        with pytest.raises(MaterialError, match="symmetric"):
            validate_elastic_matrix(d)


class TestPackedEntries:
    def test_one_based_indices(self):
        packed = mb.packed_from_entries([[1, 1, 5.0], [1, 2, 3.0], [4, 4, 2.0]])
        u = np.zeros((6, 6))
        u[np.triu_indices(6)] = packed
        assert u[0, 0] == 5.0
        assert u[0, 1] == 3.0
        assert u[3, 3] == 2.0
        # every slot not named in the entry list stays zero
        assert np.count_nonzero(u) == 3

    def test_duplicate_entry_rejected(self):
        with pytest.raises(MaterialError, match="duplicate"):
            mb.packed_from_entries([[1, 1, 5.0], [1, 1, 6.0]])

    def test_out_of_range_index_rejected(self):
        with pytest.raises(MaterialError):
            mb.packed_from_entries([[0, 1, 5.0]])

    def test_lower_triangle_aliases_upper(self):
        # (2, 1) addresses the same modulus as (1, 2) ...
        a = mb.packed_from_entries([[2, 1, 5.0]])
        b = mb.packed_from_entries([[1, 2, 5.0]])
        np.testing.assert_array_equal(a, b)
        # ... so naming both is a duplicate
        with pytest.raises(MaterialError, match="duplicate"):
            mb.packed_from_entries([[1, 2, 5.0], [2, 1, 5.0]])


# with any positive (1, 1) entry these complete a valid diagonal matrix
DIAG_2_6 = [[k, k, 10.0] for k in range(2, 7)]


class TestConfig:
    def test_isotropic_from_config(self):
        p = mb.params_from_config(
            {"type": "isotropic", "E": 2e9, "nu": 0.3, "rho": 1200.0, "h": 1e-3}
        )
        assert p.rho == 1200.0
        np.testing.assert_array_equal(p.d, mb.isotropic(2e9, 0.3))

    def test_anisotropic_gpa_scaling(self):
        p = mb.params_from_config(
            {
                "type": "anisotropic",
                "moduli_gpa": [[1, 1, 150.0], [2, 2, 150.0], [3, 3, 150.0],
                               [1, 2, 40.0], [1, 3, 10.0], [2, 3, 80.0],
                               [4, 4, 80.0], [5, 5, 20.0], [6, 6, 30.0]],
                "rho": 7800.0,
                "h": 1e-3,
            }
        )
        np.testing.assert_allclose(p.d, orthotropic_gpa(), rtol=1e-15)

    def test_missing_key_named(self):
        with pytest.raises(ConfigError, match="material.E"):
            mb.params_from_config({"type": "isotropic", "nu": 0.3, "rho": 1.0, "h": 1.0})

    @pytest.mark.parametrize("key,val", [("rho", 0.0), ("rho", -5.0), ("h", 0.0)])
    def test_nonpositive_density_or_thickness_rejected(self, key, val):
        cfg = {"type": "isotropic", "E": 2e9, "nu": 0.3, "rho": 1200.0, "h": 1e-3}
        cfg[key] = val
        with pytest.raises(ConfigError):
            mb.params_from_config(cfg)

    @pytest.mark.parametrize("key", ["strain_threshold", "stress_threshold"])
    def test_negative_threshold_rejected(self, key):
        # a negative threshold would flag every element, even an unstrained one
        cfg = {"type": "isotropic", "E": 2e9, "nu": 0.3, "rho": 1200.0, "h": 1e-3}
        with pytest.raises(ConfigError, match=f"material.{key} must be non-negative, got -1e-12"):
            mb.params_from_config({**cfg, key: -1e-12})
        assert getattr(mb.params_from_config({**cfg, key: 0.0}), key) == 0.0

    @pytest.mark.parametrize(
        "key,val,message",
        [
            # once a SolverError from the mass matrix's diagonal
            ("h", -1e-3, "material.h must be positive, got -0.001"),
            # once a numpy RuntimeWarning from max_wave_speed's sqrt
            ("rho", -1.0, "material.rho must be positive, got -1.0"),
            ("stress_threshold", -1.0, "material.stress_threshold must be non-negative, got -1.0"),
            # once a bare TypeError from comparing a str with a number
            ("rho", "x", "material.rho must be a finite number, got 'x'"),
            ("h", "x", "material.h must be a finite number, got 'x'"),
            ("strain_threshold", "x", "material.strain_threshold must be a finite number, got 'x'"),
            ("stress_threshold", "x", "material.stress_threshold must be a finite number, got 'x'"),
            # once accepted here though a JSON config cannot give it; None flags nothing
            ("strain_threshold", float("inf"), "material.strain_threshold must be a finite number, got inf"),
        ],
    )
    def test_params_checked_when_made(self, key, val, message):
        values = {"d": mb.isotropic(2e9, 0.3), "rho": 1200.0, "h": 1e-3, key: val}
        with pytest.raises(ConfigError, match=f"^{message}$"):
            mb.MaterialParams(**values)

    @pytest.mark.parametrize(
        "cfg",
        [
            {"type": "isotropic", "E": 1e308, "nu": 0.3},  # D overflows to inf
            {"type": "isotropic", "E": 2e9, "nu": 0.3, "rhoo": 1.0},
            {"type": "anisotropic", "moduli_gpa": DIAG_2_6 + [[1, 1, 140.0]], "E": 2e9},
            {"type": "anisotropic", "moduli_gpa": [[k, k, 1e308] for k in range(1, 7)]},
            {"type": "anisotropic", "moduli_gpa": DIAG_2_6 + [[1, 1, 10**400]]},
            {"type": "anisotropic", "moduli_gpa": DIAG_2_6 + [["1", "1", "140"]]},
            {"type": "anisotropic", "moduli_gpa": DIAG_2_6 + [[1.5, 1, 140.0]]},
            {"type": "anisotropic", "moduli_gpa": DIAG_2_6 + [[True, 1, 140.0]]},
        ],
    )
    def test_bad_value_or_key_raises_config_error(self, cfg):
        with pytest.raises(ConfigError):
            mb.params_from_config({"rho": 1200.0, "h": 1e-3, **cfg})

    def test_unknown_type_rejected(self):
        with pytest.raises(ConfigError, match="orthotropic"):
            mb.params_from_config({"type": "orthotropic", "rho": 1.0, "h": 1.0})

    @pytest.mark.parametrize("index, value, message", [
        # once a bare IndexError
        (None, None, r"elastic matrix must be 6x6, got \(3, 3\)"),
        ((2, 2), np.nan, r"elastic matrix has non-finite entries \(overflow\?\)"),
        # once run to completion
        ((0, 1), 1e-3, "elastic matrix must be exactly symmetric"),
        # once accepted
        ((5, 5), -2.0, r"elastic matrix is singular or indefinite: eigenvalue -2.000000e\+00 "
                       r"\(largest 1.000000e\+00\)"),
    ], ids=["3x3", "nan", "asymmetric", "indefinite"])
    def test_elastic_matrix_checked_when_made(self, index, value, message):
        d = np.eye(3 if index is None else 6)
        if index is not None:
            d[index] = value
        with pytest.raises(ConfigError, match=f"^invalid material: {message}$"):
            mb.MaterialParams(d=d, rho=1200.0, h=1e-3)

    def test_params_compare_and_hash_by_value(self):
        # once ValueError from == on the array field, TypeError from hash
        d = mb.isotropic(2e9, 0.3)
        a = mb.MaterialParams(d=d, rho=1200.0, h=1e-3)
        b = mb.MaterialParams(d=d.copy(), rho=1200.0, h=1e-3)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != mb.MaterialParams(d=d, rho=1200.0, h=2e-3)
        stiffer = d.copy()
        stiffer[0, 0] *= 2.0
        assert a != mb.MaterialParams(d=stiffer, rho=1200.0, h=1e-3)
        # d is a read-only copy: neither the caller's array nor the field can change it
        d[0, 0] = 0.0
        assert a == b and a.d[0, 0] > 0.0
        with pytest.raises(ValueError, match="read-only"):
            a.d[0, 0] = 1.0
        config = mb.ScenarioConfig(mesh=mb.StructuredSpec(1.0, 1.0, 4, 4), material=a,
                                   case=mb.CaseSpec(1), border="fixed", t_final=1e-5)
        same = mb.ScenarioConfig(**{**vars(config), "material": b})
        assert hash(StudySpec(config, k_max=2)) == hash(StudySpec(same, k_max=2))


class TestDerived:
    def test_voigt_order(self):
        assert VOIGT_COMPONENTS == ("xx", "yy", "zz", "xy", "yz", "xz")

    def test_max_wave_speed(self, steel):
        c11 = 2.6923076923076923e11
        assert mb.max_wave_speed(steel) == pytest.approx(
            (c11 / 7800.0) ** 0.5, rel=1e-12
        )

    def test_max_wave_speed_picks_largest_diagonal(self, orthotropic):
        assert mb.max_wave_speed(orthotropic) == pytest.approx(
            (150e9 / 7800.0) ** 0.5, rel=1e-12
        )
