import numpy as np
import pytest
import scipy.sparse as sp

from fracfilt.models import (
    JumpSpec,
    ModelSpec,
    SpatialGrid,
    adjoint_diagonals,
    adjoint_matrix,
    gaussian_density,
    jump_generator_matrix,
    named_model,
)


def ou_model(beta=0.5):
    return named_model("ou-linear", beta)


GRID = SpatialGrid(-6.0, 6.0, 1200)  # spacing 0.01


class TestGenerator:
    def test_constants_are_killed(self):
        out = adjoint_matrix(ou_model(), GRID).T @ np.ones(GRID.n_nodes)
        assert np.max(np.abs(out[1:-1])) == 0.0

    def test_pure_diffusion_on_square(self):
        model = ModelSpec(
            drift=lambda x: np.zeros_like(x),
            sigma=lambda x: np.ones_like(x),
            observation=lambda x: np.zeros_like(x),
            beta=0.5,
            p0=gaussian_density(0.0, 1.0),
        )
        out = adjoint_matrix(model, GRID).T @ (GRID.nodes ** 2)
        assert np.max(np.abs(out[1:-1] - 1.0)) < 1e-8

    def test_ou_on_square(self):
        grid = SpatialGrid(-6.0, 6.0, 1200)
        x = grid.nodes
        out = adjoint_matrix(ou_model(), grid).T @ (x ** 2)
        target = 2.0 - 2.0 * x ** 2
        assert np.max(np.abs(out[1:-1] - target[1:-1])) < 1e-6


class TestAdjoint:
    def test_mass_conservation_any_density(self):
        x = GRID.nodes
        p = np.exp(-0.5 * (x - 0.7) ** 2)
        out = adjoint_matrix(ou_model(), GRID) @ p
        assert abs(np.sum(out) * GRID.spacing) < 1e-10
        # and for a density supported away from the walls
        p2 = np.where(np.abs(x) < 3.0, np.cos(x) ** 2, 0.0)
        out2 = adjoint_matrix(ou_model(), GRID) @ p2
        assert abs(np.sum(out2) * GRID.spacing) < 1e-10

    def test_duality_inner_products(self):
        x = GRID.nodes
        bump = lambda c: np.where(np.abs(x - c) < 2.0, np.exp(-1.0 / (1e-9 + 4.0 - (x - c) ** 2)), 0.0)
        phi, p = bump(0.5), bump(-0.3)
        m = ou_model()
        lhs = np.sum((adjoint_matrix(m, GRID).T @ phi) * p) * GRID.spacing
        rhs = np.sum(phi * (adjoint_matrix(m, GRID) @ p)) * GRID.spacing
        assert abs(lhs - rhs) < 1e-8

    def test_ou_stationary_density_is_annihilated(self):
        x = GRID.nodes
        p = np.exp(-0.5 * x ** 2) / np.sqrt(2.0 * np.pi)
        out = adjoint_matrix(ou_model(), GRID) @ p
        assert np.max(np.abs(out)) < 1e-3


class TestJumps:
    def jump_model(self, lam0=1.5):
        base = ou_model()
        return ModelSpec(
            drift=base.drift, sigma=base.sigma, observation=base.observation,
            beta=0.5, p0=base.p0,
            jumps=JumpSpec(intensity=lam0, atoms=[(0.4, 0.5), (-0.4, 0.5)],
                           state_jump_map=lambda x, w: np.full_like(x, w)),
        )

    def test_zero_intensity_reduces_to_diffusion(self):
        grid = SpatialGrid(-4.0, 4.0, 64)
        phi = np.tanh(grid.nodes)
        with_j = adjoint_matrix(self.jump_model(lam0=0.0), grid).T @ phi
        without = adjoint_matrix(ou_model(), grid).T @ phi
        assert np.array_equal(with_j, without)

    def test_jump_term_value(self):
        grid = SpatialGrid(-4.0, 4.0, 800)
        m = self.jump_model(lam0=2.0)
        x = grid.nodes
        phi = x ** 2
        out = adjoint_matrix(m, grid).T @ phi
        # A phi + lam0 * mean_w[(x+w)^2 - x^2] = diffusion part + lam0 * w^2;
        # exclude the jump-width margin where targets are clamped to the walls
        diff_part = adjoint_matrix(ou_model(), grid).T @ phi
        inner = slice(50, -50)
        assert np.max(np.abs(out[inner] - diff_part[inner] - 2.0 * 0.4 ** 2)) < 1e-9

    def test_jump_adjoint_conserves_mass(self):
        grid = SpatialGrid(-4.0, 4.0, 128)
        p = np.exp(-grid.nodes ** 2)
        out = adjoint_matrix(self.jump_model(), grid) @ p
        assert abs(np.sum(out) * grid.spacing) < 1e-10

    def test_matrix_is_diffusion_diagonals_plus_jumps(self):
        grid = SpatialGrid(-4.0, 4.0, 64)
        m = self.jump_model()
        lower, main, upper = adjoint_diagonals(m, grid)
        assert (lower.size, main.size, upper.size) == (64, 65, 64)
        expected = sp.diags([lower, main, upper], offsets=[-1, 0, 1]) \
            + jump_generator_matrix(m, grid).T
        assert (adjoint_matrix(m, grid) != expected).nnz == 0

    def test_generator_needs_a_state_jump_map(self):
        for m in (ou_model(), named_model("jump-poisson", 0.5)):
            with pytest.raises(ValueError, match="no state jump specification"):
                jump_generator_matrix(m, SpatialGrid(-4.0, 4.0, 64))

    def test_atom_probabilities_validated(self):
        with pytest.raises(ValueError):
            JumpSpec(intensity=1.0, atoms=[(1.0, 0.7), (-1.0, 0.7)])
        with pytest.raises(ValueError):
            JumpSpec(intensity=-1.0, atoms=[(1.0, 1.0)])


class TestModelSpec:
    def test_validation_catches_bad_sigma(self):
        m = ModelSpec(
            drift=lambda x: -x,
            sigma=lambda x: x,      # vanishes at 0
            observation=lambda x: x,
            beta=0.5,
            p0=gaussian_density(0.0, 1.0),
        )
        with pytest.raises(ValueError, match="sigma"):
            m.validate_on_grid(SpatialGrid(-4.0, 4.0, 64))

    def test_validation_catches_non_density(self):
        m = ModelSpec(
            drift=lambda x: -x,
            sigma=lambda x: np.ones_like(x),
            observation=lambda x: x,
            beta=0.5,
            p0=lambda x: np.exp(-0.5 * x ** 2),   # not normalized
        )
        with pytest.raises(ValueError, match="integrates"):
            m.validate_on_grid(SpatialGrid(-8.0, 8.0, 256))

    @pytest.mark.parametrize("field,value,match", [
        ("drift", lambda x: np.where(x > 1.0, np.inf, -x), "drift/sigma must be finite"),
        ("sigma", lambda x: np.where(x > 1.0, np.inf, 1.0), "drift/sigma must be finite"),
        ("sigma", lambda x: np.where(x > 1.0, np.nan, 1.0), "drift/sigma must be finite"),
        ("observation", lambda x: 1.0 / np.maximum(x, 0.0), "observation function must be finite"),
        ("p0", lambda x: gaussian_density(0.0, 1.0)(x) - 1e-3, "p0 must be nonnegative"),
    ], ids=["drift-inf", "sigma-inf", "sigma-nan", "h-inf", "p0-negative"])
    def test_validation_refuses_non_finite_or_negative_input(self, field, value, match):
        fields = dict(drift=lambda x: -x, sigma=np.ones_like, observation=lambda x: x,
                      beta=0.5, p0=gaussian_density(0.0, 1.0))
        fields[field] = value
        with np.errstate(divide="ignore"), pytest.raises(ValueError, match=match):
            ModelSpec(**fields).validate_on_grid(SpatialGrid(-8.0, 8.0, 256))

    def test_scalar_observation_fills_a_column(self):
        m = ModelSpec(drift=lambda x: -x, sigma=np.ones_like, observation=lambda x: 2.0,
                      beta=0.5, p0=gaussian_density(0.0, 1.0))
        h = m.h_matrix(np.linspace(-1.0, 1.0, 5))
        assert h.shape == (5, 1) and np.all(h == 2.0)

    def test_beta_range(self):
        with pytest.raises(ValueError):
            ModelSpec(drift=lambda x: x, sigma=lambda x: x, observation=lambda x: x,
                      beta=1.0, p0=gaussian_density(0.0, 1.0))

    def test_named_models(self):
        for key in ("ou-linear", "benes-like", "jump-poisson"):
            m = named_model(key, 0.5)
            m_small_grid = SpatialGrid(-8.0, 8.0, 64)
            m.validate_on_grid(m_small_grid)
        with pytest.raises(KeyError):
            named_model("no-such-model", 0.5)

    def test_grid_invariants(self):
        with pytest.raises(ValueError):
            SpatialGrid(1.0, -1.0, 64)
        with pytest.raises(ValueError):
            SpatialGrid(-1.0, 1.0, 4)
        g = SpatialGrid(-1.0, 1.0, 8)
        assert g.spacing == pytest.approx(0.25)
        assert len(g.nodes) == g.n_nodes == 9
