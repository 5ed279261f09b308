import math

import numpy as np
import pytest

from dudasim.params import (
    LinkSuccess,
    SlotTiming,
    SystemParams,
    db_to_linear,
    dbm_to_watts,
    validate,
    validate_link,
)


class TestUnitConversions:
    def test_dbm_anchor(self):
        # 30 dBm is the definitional anchor of the scale
        assert dbm_to_watts(30.0) == 1.0

    def test_dbm_examples(self):
        assert dbm_to_watts(40.0) == pytest.approx(10.0, rel=1e-12)
        # -174 dBm = 10^(-20.4) W
        assert dbm_to_watts(-174.0) == pytest.approx(10.0 ** (-20.4), rel=1e-12, abs=0.0)
        assert dbm_to_watts(-174.0) == pytest.approx(3.9810717055349695e-21, rel=1e-12, abs=0.0)

    def test_db_examples(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(-5.0) == pytest.approx(0.31622776601683794, rel=1e-12)
        assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-12)

    def test_round_trip(self):
        # the inverses 10*log10(W) + 30 and 10*log10(x) undo both conversions
        rng = np.random.default_rng(1)
        for p in rng.uniform(-200.0, 60.0, size=2000):
            w = dbm_to_watts(p)
            assert 10.0 * math.log10(w) + 30.0 == pytest.approx(p, rel=1e-12, abs=1e-12)
        for x in rng.uniform(-60.0, 60.0, size=2000):
            assert 10.0 * math.log10(db_to_linear(x)) == pytest.approx(x, rel=1e-12, abs=1e-12)


class TestDefaults:
    def test_table_defaults_are_valid(self):
        assert validate(SystemParams(), SlotTiming()) == []

    def test_table_defaults_values(self):
        p = SystemParams()
        assert p.lambda_b == 0.005
        assert p.delta == 0.5
        assert p.alpha == 4.0
        assert p.beta_u == 1.0
        assert p.beta_d == pytest.approx(10 ** -0.5)
        assert p.p_b == pytest.approx(10.0)
        assert p.p_m == pytest.approx(0.1)

    def test_w_defaults_to_t_d(self):
        assert SlotTiming(t_d=2.0, t_u=1.0).w == 2.0
        assert SlotTiming(w=0.7).w == 0.7


class TestValidate:
    def test_alpha_boundary(self):
        msgs = validate(SystemParams(alpha=2.0), SlotTiming())
        assert any("alpha" in m and "exceed 2" in m for m in msgs)

    def test_packet_exceeds_slot(self):
        msgs = validate(SystemParams(), SlotTiming(s_u=1.5, t_u=1.0))
        assert any("s_u" in m and "t_u" in m for m in msgs)

    def test_every_violation_reported(self):
        msgs = validate(
            SystemParams(lambda_b=-1.0, delta=1.5, alpha=1.0),
            SlotTiming(t_d=-1.0, s_d=5.0),
        )
        joined = " ".join(msgs)
        for fld in ("lambda_b", "delta", "alpha", "t_d", "s_d"):
            assert fld in joined

    def test_link_invariants(self):
        assert validate_link(LinkSuccess(0.5, 1.0)) == []
        assert validate_link(LinkSuccess(0.0, 0.5))
        assert validate_link(LinkSuccess(0.5, 1.1))


class TestImmutability:
    def test_frozen(self):
        p = SystemParams()
        with pytest.raises(Exception):
            p.lambda_b = 1.0
        t = SlotTiming()
        with pytest.raises(Exception):
            t.s_u = 0.1
