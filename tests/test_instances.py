import math

import numpy as np
import pytest

from instances import (
    cosine_datum,
    holder_half_measures,
    mirror_cosine_measures,
    random_atoms_instance,
)
from transportlab.geom import disk
from transportlab.instances import smooth_arc_instance

DISK = disk(1.0)


class TestRandomAtoms:
    def test_shape_and_balance(self):
        rng = np.random.default_rng(0)
        f_plus, f_minus = random_atoms_instance(rng, DISK, 6)
        assert len(f_plus) == 6 and len(f_minus) == 6
        assert f_plus.total_mass == pytest.approx(f_minus.total_mass, rel=1e-12)
        assert np.all(f_plus.s < DISK.perimeter)

    def test_seed_reproducible(self):
        a = random_atoms_instance(np.random.default_rng(3), DISK, 5)
        b = random_atoms_instance(np.random.default_rng(3), DISK, 5)
        assert np.array_equal(a[0].s, b[0].s)
        assert np.array_equal(a[1].mass, b[1].mass)


class TestSmoothArc:
    def test_balanced_with_sublengths(self):
        rng = np.random.default_rng(1)
        f_plus, f_minus = smooth_arc_instance(rng, DISK)
        assert f_plus.total_mass == pytest.approx(f_minus.total_mass, rel=1e-12)
        assert np.all(f_plus.sublength > 0)
        assert np.all(f_minus.sublength > 0)
        assert np.all(f_plus.mass >= 0)

    def test_supports_disjoint(self):
        rng = np.random.default_rng(2)
        f_plus, f_minus = smooth_arc_instance(rng, DISK)
        # plus block and minus block live on separated arcs
        gap = min(
            np.min(np.abs(f_plus.s[:, None] - f_minus.s[None, :])),
            DISK.perimeter
            - np.max(np.abs(f_plus.s[:, None] - f_minus.s[None, :])),
        )
        assert gap > 0


class TestCosine:
    def test_datum_values(self):
        g = cosine_datum(256)
        assert g.jumps is None or len(g.jumps) == 0
        assert g.eval(0.0)[0] == pytest.approx(1.0)
        assert g.eval(math.pi)[0] == pytest.approx(-1.0, abs=1e-3)

    def test_mirror_measures(self):
        f_plus, f_minus = mirror_cosine_measures(2000)
        assert f_plus.total_mass == pytest.approx(2.0, rel=1e-5)
        assert f_minus.total_mass == pytest.approx(2.0, rel=1e-5)
        # decreasing half of cos sits in (pi/2, 3pi/2)
        assert np.all((f_minus.s > math.pi / 2) & (f_minus.s < 3 * math.pi / 2))


class TestHolderHalf:
    def test_balance_and_support(self):
        f_plus, f_minus = holder_half_measures(1000)
        assert f_plus.total_mass == pytest.approx(f_minus.total_mass, rel=1e-9)
        assert np.all(f_minus.s < math.pi)
        assert np.all(f_plus.s > math.pi)
        assert np.all(f_plus.sublength > 0)

    def test_total_mass_value(self):
        # integral of sqrt(sin) over (0, pi)
        from scipy.integrate import quad

        expect, _ = quad(lambda s: math.sqrt(math.sin(s)), 0, math.pi)
        f_plus, _ = holder_half_measures(4000)
        assert f_plus.total_mass == pytest.approx(expect, rel=1e-3)


def test_disk_generators_at_radius_two():
    R = 2.0
    P = 2 * math.pi * R
    g = cosine_datum(256, radius=R)
    assert g.perimeter == P
    assert g.eval(math.pi * R)[0] == pytest.approx(-1.0, abs=1e-3)
    # the mass of cos(s / R) over a half circle is 2R
    f_plus, f_minus = mirror_cosine_measures(500, radius=R)
    assert f_plus.perimeter == f_minus.perimeter == P
    assert f_plus.total_mass == pytest.approx(2 * R, rel=1e-5)
    assert np.all((f_minus.s > P / 4) & (f_minus.s < 3 * P / 4))
    h_plus, h_minus = holder_half_measures(1000, radius=R)
    assert h_plus.total_mass == pytest.approx(h_minus.total_mass, rel=1e-9)
    assert np.all(h_minus.s < P / 2) and np.all(h_plus.s > P / 2)
