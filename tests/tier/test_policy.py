"""Placement policy: decayed scoring, popularity feed, hysteresis."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.tier import PlacementPolicy, SegmentKey

K = lambda i, col="c", rel="R": SegmentKey(rel, col, i)  # noqa: E731


def test_access_decay_across_ticks():
    policy = PlacementPolicy(access_decay=0.5)
    policy.note_access(K(0))
    assert policy.effective_accesses(K(0)) == 1.0
    policy.begin_pass()
    policy.begin_pass()
    assert policy.effective_accesses(K(0)) == pytest.approx(0.25)
    policy.note_access(K(0))
    assert policy.effective_accesses(K(0)) == pytest.approx(1.25)


def test_popularity_ema_scales_scores():
    policy = PlacementPolicy()
    policy.note_access(K(0, rel="hotrel"))
    policy.note_access(K(0, rel="coldrel"))
    for _ in range(10):
        policy.note_popularity("hotrel")
    assert policy.popularity("hotrel") > policy.popularity("coldrel") == 1.0
    assert policy.score(K(0, rel="hotrel"), 100) > policy.score(
        K(0, rel="coldrel"), 100
    )


def test_score_normalizes_by_bytes():
    policy = PlacementPolicy()
    policy.note_access(K(0))
    policy.note_access(K(1))
    assert policy.score(K(0), 100) > policy.score(K(1), 1000)


def rank(policy, resident, protect=frozenset()):
    """A ranking over a fixed *resident* set, as one placement pass sees it."""
    keys = {key for key, _ in resident}
    return policy.rank_victims(
        resident, lambda key: key in keys and key not in protect
    )


def test_victims_prefer_cheapest_and_respect_needed_bytes():
    policy = PlacementPolicy(min_residency_ticks=0, hysteresis=1.0)
    for i, weight in [(0, 1.0), (1, 5.0), (2, 10.0)]:
        for _ in range(int(weight)):
            policy.note_access(K(i))
    resident = [(K(0), 100), (K(1), 100), (K(2), 100)]
    victims = rank(policy, resident).choose(150, candidate_score=1e9)
    assert victims == [K(0), K(1)]  # cheapest first, stop at needed bytes


def test_victims_decline_rather_than_evict_better_segments():
    policy = PlacementPolicy(min_residency_ticks=0, hysteresis=1.0)
    for _ in range(10):
        policy.note_access(K(0))
    resident = [(K(0), 100)]
    weak_candidate_score = policy.score(K(0), 100) / 2
    assert rank(policy, resident).choose(50, weak_candidate_score) is None


def test_hysteresis_protects_marginally_worse_segments():
    policy = PlacementPolicy(min_residency_ticks=0, hysteresis=2.0)
    policy.note_access(K(0))
    ranking = rank(policy, [(K(0), 100)])
    slightly_better = policy.score(K(0), 100) * 1.5  # < 2x: within the band
    assert ranking.choose(50, slightly_better) is None
    clearly_better = policy.score(K(0), 100) * 3.0
    assert ranking.choose(50, clearly_better) == [K(0)]


def test_min_residency_ticks_shields_recent_admissions():
    policy = PlacementPolicy(min_residency_ticks=2, hysteresis=1.0)
    policy.begin_pass()
    policy.note_admitted(K(0))
    assert rank(policy, [(K(0), 100)]).choose(50, 1e9) is None
    policy.begin_pass()
    policy.begin_pass()
    assert rank(policy, [(K(0), 100)]).choose(50, 1e9) == [K(0)]


def test_protected_keys_are_never_victims():
    policy = PlacementPolicy(min_residency_ticks=0)
    assert rank(policy, [(K(0), 100)], protect={K(0)}).choose(50, 1e9) is None


def frozen_choose_victims(policy, needed_bytes, candidate_score, resident, protect):
    """The per-candidate rescan the one-pass ranking replaced, verbatim."""
    evictable = []
    for key, nbytes in resident:
        if key in protect:
            continue
        stats = policy._stats.get(key)
        if (
            stats is not None
            and stats.admitted_tick >= 0
            and policy.tick - stats.admitted_tick < policy.min_residency_ticks
        ):
            continue
        score = policy.score(key, nbytes)
        if score * policy.hysteresis >= candidate_score:
            continue
        evictable.append((score, key, nbytes))
    evictable.sort(key=lambda item: (item[0], item[1]))
    victims = []
    freed = 0
    for _, key, nbytes in evictable:
        victims.append(key)
        freed += nbytes
        if freed >= needed_bytes:
            return victims
    return None


@st.composite
def placement_passes(draw):
    """A resident set with history, then a pass's candidate sequence."""
    n = draw(st.integers(1, 12))
    resident = {
        K(i, rel=draw(st.sampled_from("RS"))): draw(st.sampled_from([64, 100, 256]))
        for i in range(n)
    }
    history = [
        (
            draw(st.integers(0, 4)),  # accesses
            draw(st.integers(0, 3)),  # ticks since the last access
            draw(st.integers(-1, 3)),  # ticks since admission, -1 = never
        )
        for _ in range(n)
    ]
    protect = set(draw(st.sets(st.sampled_from(sorted(resident)), max_size=3)))
    candidates = draw(
        st.lists(
            st.tuples(
                st.integers(-64, 700),  # needed bytes
                st.floats(0.0, 0.2, allow_nan=False),  # candidate score
                st.sets(st.integers(0, n - 1), max_size=2),  # evicted after
                st.integers(0, 2),  # fresh admissions after
            ),
            min_size=1,
            max_size=8,
        )
    )
    return resident, history, protect, candidates


@settings(max_examples=300, deadline=None)
@given(
    placement_passes(),
    st.integers(0, 3),
    st.sampled_from([1.0, 1.25, 2.0]),
    st.sampled_from([0.5, 0.85, 1.0]),
)
def test_one_pass_ranking_matches_per_candidate_rescan(
    case, min_residency, hysteresis, decay
):
    resident, history, protect, candidates = case
    policy = PlacementPolicy(
        min_residency_ticks=min_residency, hysteresis=hysteresis, access_decay=decay
    )
    keys = sorted(resident)
    # lay down each key's history on the placement clock, then open a pass
    for tick in range(4):
        for key, (accesses, since_access, since_admit) in zip(keys, history):
            if since_admit >= 0 and 4 - tick == since_admit:
                policy.note_admitted(key)
            if 4 - tick == since_access + 1:
                for _ in range(accesses):
                    policy.note_access(key)
        policy.begin_pass()
    ranking = policy.rank_victims(
        list(resident.items()), lambda key: key in resident and key not in protect
    )
    fresh_id = 100
    for needed, score, evicted_after, admitted_after in candidates:
        expected = frozen_choose_victims(
            policy, needed, score, list(resident.items()), protect
        )
        got = ranking.choose(needed, score)
        assert got == expected
        # the pass evicts the victims, maybe others, and admits (and so
        # protects) new segments before the next candidate
        for key in (got or []) + [keys[i] for i in evicted_after]:
            if resident.pop(key, None) is not None:
                policy.note_evicted(key)
        for _ in range(admitted_after):
            key = K(fresh_id)
            fresh_id += 1
            resident[key] = 100
            protect.add(key)
            policy.note_access(key)
            policy.note_admitted(key)


def test_forget_drops_relation_state():
    policy = PlacementPolicy()
    policy.note_access(K(0, rel="gone"))
    policy.note_popularity("gone")
    policy.forget("gone")
    assert policy.effective_accesses(K(0, rel="gone")) == 0.0
    assert policy.popularity("gone") == 1.0


def test_invalid_hysteresis_rejected():
    with pytest.raises((ValueError, ReproError)):
        PlacementPolicy(hysteresis=0.5)
