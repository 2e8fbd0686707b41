"""Admission atomicity: the check-then-act race and its fix.

A check-then-act admission flow reads the policy (check), yields, then
pins the slot (act).  Under the synchronous DES middleware nothing
interleaves between the two, but with concurrent submitters (the
asyncio control plane) both callers can pass the check before either
acts — exceeding the owner's ``J`` limit.  These tests pin the race on
a test-local check-then-act helper and prove
:meth:`Gatekeeper.try_admit` closes it, plus a seeded property test of
the ledger invariants under arbitrary interleavings.
"""

import asyncio
import random

import pytest

from repro.middleware.config import OwnerPrefs
from repro.middleware.controlplane import run_virtual
from repro.middleware.gatekeeper import AdmissionError, Gatekeeper


def make_gk(j=1, p=4, denied=()):
    return Gatekeeper(host_name="h0",
                      prefs=OwnerPrefs(j_limit=j, p_limit=p,
                                       denied=frozenset(denied)))


class TestCheckThenActRace:
    """The pinned race: check-then-act overshoots J, try_admit does not."""

    @staticmethod
    async def _submit_check_then_act(gk, key):
        # check ...
        ok = (gk.prefs.allows("user")
              and gk.applications_in_flight < gk.prefs.j_limit)
        # ... suspension point: any other submitter may run here ...
        await asyncio.sleep(0)
        # ... act.
        if ok:
            gk.held.add(key)
            gk.admitted += 1
            return True
        gk.refused += 1
        return False

    @staticmethod
    async def _submit_atomic(gk, key):
        await asyncio.sleep(0)
        return gk.try_admit(key, "user")

    def test_check_then_act_exceeds_j_limit(self):
        """The bug: two interleaved submitters both pass the check with
        J=1, then both hold — J is exceeded."""
        gk = make_gk(j=1)

        async def race():
            return await asyncio.gather(
                self._submit_check_then_act(gk, "job-a"),
                self._submit_check_then_act(gk, "job-b"))

        assert run_virtual(race()) == [True, True]
        assert gk.applications_in_flight == 2  # > j_limit: the race
        assert gk.applications_in_flight > gk.prefs.j_limit

    def test_try_admit_closes_the_race(self):
        """Same interleaving, atomic admission: exactly one wins."""
        gk = make_gk(j=1)

        async def race():
            return await asyncio.gather(
                self._submit_atomic(gk, "job-a"),
                self._submit_atomic(gk, "job-b"))

        outcomes = run_virtual(race())
        assert sorted(outcomes) == [False, True]
        assert gk.applications_in_flight == 1
        assert gk.admitted == 1 and gk.refused == 1

    def test_try_admit_respects_denied_list(self):
        gk = make_gk(j=4, denied=["mallory"])
        assert not gk.try_admit("k1", "mallory")
        assert gk.refused == 1 and not gk.held
        assert gk.try_admit("k2", "alice")

    def test_try_admit_is_idempotent_per_key(self):
        """Re-admitting a held key is a no-op success: the J slot stays
        pinned once and no counter moves."""
        gk = make_gk(j=1)
        assert gk.try_admit("k", "user")
        assert gk.try_admit("k", "user")  # duplicate RESERVE delivery
        assert gk.applications_in_flight == 1
        assert gk.admitted == 1 and gk.refused == 0


class TestAdmissionPropertyInvariants:
    """Seeded random interleavings of try_admit/start/end never break
    the ledger: in_flight <= J and admitted - refused reconciles."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 99])
    def test_interleaved_lifecycle_invariants(self, seed):
        rng = random.Random(seed)
        j, p = rng.randint(1, 4), rng.randint(1, 6)
        gk = make_gk(j=j, p=p)
        held, running = [], []
        admitted_ok = refused = released = 0
        started = ended = 0
        for step in range(400):
            op = rng.random()
            if op < 0.45:
                key = f"k{step}"
                if gk.try_admit(key, "user"):
                    admitted_ok += 1
                    held.append(key)
                else:
                    refused += 1
            elif op < 0.65 and held:
                key = held.pop(rng.randrange(len(held)))
                n = rng.randint(1, p)
                gk.start_application(key, f"job-{key}", n)
                running.append(f"job-{key}")
                started += 1
            elif op < 0.8 and held:
                key = held.pop(rng.randrange(len(held)))
                assert gk.release_hold(key)
                released += 1
            elif running:
                job = running.pop(rng.randrange(len(running)))
                gk.end_application(job)
                ended += 1
            # The invariant under every prefix of every interleaving:
            assert gk.applications_in_flight <= j
            # Ledger reconciliation: every admission is either still
            # held, released, or became a started application.
            assert gk.admitted == admitted_ok
            assert gk.refused == refused
            assert gk.admitted - released - started == len(gk.held)
            assert started - ended == len(gk.running)

    def test_start_without_hold_still_raises(self):
        gk = make_gk()
        with pytest.raises(AdmissionError):
            gk.start_application("ghost", "job", 1)
