"""The selftest harness itself: passing bundles and failure sensitivity."""

import pytest

from hullattack import selftest
from hullattack.codes import closure, code_from_rows
from hullattack.selftest import (
    check_closure_preservation,
    check_dual_identity,
    check_hull_identity,
    run_level,
)


class TestRunLevel:
    def test_quick_passes_and_reports_each_check(self):
        lines = []
        assert run_level("quick", report=lines.append)
        assert len(lines) >= 10
        assert all(line.startswith("ok") for line in lines)


class TestSensitivity:
    def test_corrupted_closure_is_caught(self):
        # A closure that forgets the code entirely cannot preserve the
        # free LCD biconditional; the check must notice, though only the
        # odd-k closures are corrupted.
        def corrupted(c):
            return code_from_rows(c.k, [[0] * (2 * c.n)]) if c.k % 2 else closure(c)

        try:
            check_closure_preservation(samples=80, closure_fn=corrupted)
        except AssertionError:
            return
        raise AssertionError("corrupted closure slipped through")

    def test_corrupted_extended_closure_is_caught(self):
        # Only the k = 2 mod 4 closures are corrupted.
        def corrupted(c):
            return closure(c) if c.k % 2 else code_from_rows(c.k, [[0] * (3 * c.n)])

        try:
            check_closure_preservation(samples=80, closure_fn=corrupted)
        except AssertionError:
            return
        raise AssertionError("corrupted extended closure slipped through")

    def test_hull_identity_catches_a_hull_that_is_the_code(self, monkeypatch):
        # The code lattice is its own k-hull only for self-orthogonal codes.
        monkeypatch.setattr(selftest, "hull", lambda c: c)
        with pytest.raises(AssertionError, match="hull identity broke"):
            check_hull_identity(samples=60)

    def test_dual_identity_catches_a_dual_that_is_the_code(self, monkeypatch):
        # Containment in k.L* and the covolume both hold only for
        # self-dual codes.
        monkeypatch.setattr(selftest, "dual", lambda c: c)
        with pytest.raises(AssertionError, match="dual"):
            check_dual_identity(samples=60)

    def test_report_lines_mark_failures(self):
        # Patch one check to fail and confirm run_level reports it.
        import hullattack.selftest as st

        original = st.QUICK_CHECKS
        failing = (("always fails", lambda: (_ for _ in ()).throw(AssertionError("boom"))),)
        st.QUICK_CHECKS = failing
        try:
            lines = []
            assert not run_level("quick", report=lines.append)
            assert lines == ["FAIL always fails: boom"]
        finally:
            st.QUICK_CHECKS = original
