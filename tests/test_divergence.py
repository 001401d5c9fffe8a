import itertools
import math
import random
import sys

import pytest
from hypothesis import given, strategies as st

from tvkl import (
    EventSubset,
    MismatchedSupportsError,
    OutOfRangeError,
    SupportMismatchError,
    TooLargeError,
    WitnessFunction,
    bernoulli,
    bh_decomposition,
    binary_kl,
    binary_tv,
    event_mass,
    hellinger_affinity,
    hoeffding_step_check,
    kl_divergence,
    kl_lower_vajda,
    new_distribution,
    overlap_identities,
    quantize,
    total_variation,
    tv_subset_oracle,
)
from tvkl.distributions import Distribution
from tvkl.divergence import _aligned
from tvkl.samples import kl_per_toss
from tvkl.variational import _mean_difference, dv_optimal_witness, dv_value
from tvkl.verify import (
    WEIGHT_FLOOR,
    _draw_distribution,
    _hellinger_chain,
    _seeded_pairs,
    random_distribution,
)
import oracle
from conftest import dist, seeded_pairs

P3 = dist(0.2, 0.3, 0.5)
Q3 = dist(0.4, 0.4, 0.2)


@st.composite
def integer_weight_pair(draw):
    # Integer weights keep distinct distributions well separated after
    # normalisation: any nonzero atom gap is at least 1/(sum_p * sum_q).
    n = draw(st.integers(min_value=1, max_value=10))
    counts = st.lists(
        st.integers(min_value=0, max_value=50), min_size=n, max_size=n
    ).filter(lambda c: sum(c) > 0)
    return (
        new_distribution(draw(counts), renormalize=True),
        new_distribution(draw(counts), renormalize=True),
    )


class TestTotalVariation:
    def test_bernoulli_shift(self):
        assert total_variation(bernoulli(0.5), bernoulli(0.6)) == pytest.approx(
            0.1, abs=1e-15
        )

    def test_identity(self):
        assert total_variation(P3, P3) == 0.0

    def test_three_atom_value(self):
        assert total_variation(P3, Q3) == pytest.approx(0.3, abs=1e-15)

    def test_disjoint_supports(self):
        assert total_variation(bernoulli(1.0), bernoulli(0.0)) == 1.0

    def test_alignment_by_label_union(self):
        a = new_distribution([1.0], labels=["x"])
        b = new_distribution([1.0], labels=["y"])
        assert total_variation(a, b) == 1.0

    def test_clamped_to_one_on_pairs_summing_above_one(self):
        # both are valid within SUM_TOLERANCE; the raw sums are
        # 1.0000000004 and 1.0000000008
        p = Distribution(("a", "b"), (0.5 + 4e-10, 0.5 + 4e-10))
        q = Distribution(("c",), (1.0,))
        assert total_variation(p, q) == 1.0
        assert tv_subset_oracle(p, q) == 1.0
        assert kl_lower_vajda(total_variation(p, q)) == math.inf

    @given(integer_weight_pair())
    def test_symmetry_and_range(self, pair):
        p, q = pair
        tv = total_variation(p, q)
        assert tv == total_variation(q, p)
        assert 0.0 <= tv <= 1.0


@st.composite
def pair_and_permuted_q(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    weights = st.lists(
        st.floats(min_value=1e-6, max_value=1.0), min_size=n, max_size=n
    )
    labels = [f"x{i}" for i in range(n)]
    p = new_distribution(draw(weights), labels, renormalize=True)
    q = new_distribution(draw(weights), labels, renormalize=True)
    order = draw(st.permutations(range(n)))
    q_perm = Distribution(
        tuple(q.support[j] for j in order), tuple(q.probs[j] for j in order)
    )
    return p, q, q_perm


def three_path_aligned(p, q):
    # The alignment as it was written with a same-label-set path and a
    # separate union path; the one-map _aligned must match it exactly.
    if p.support == q.support:
        return p.support, p.probs, q.probs
    q_index = dict(zip(q.support, q.probs))
    if len(p.support) == len(q.support):
        try:
            return p.support, p.probs, tuple(map(q_index.__getitem__, p.support))
        except KeyError:
            pass
    p_labels = set(p.support)
    q_only = tuple(lab for lab in q.support if lab not in p_labels)
    labels = p.support + q_only
    pw = p.probs + (0.0,) * len(q_only)
    return labels, pw, tuple(map(q_index.get, labels, itertools.repeat(0.0)))


@st.composite
def overlapping_pair(draw):
    # q keeps any subset of p's labels in any order and adds any q-only
    # labels: equal, permuted, subset, superset, disjoint and partial overlap.
    p_labels = draw(
        st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=8, unique=True)
    )
    kept = draw(st.permutations([lab for lab in p_labels if draw(st.booleans())]))
    q_only = draw(st.lists(st.sampled_from("uvwxyz"), max_size=6, unique=True))
    q_labels = kept + q_only or p_labels

    def weights(n):
        counts = st.lists(st.integers(0, 50), min_size=n, max_size=n)
        return draw(counts.filter(lambda c: sum(c) > 0))

    return (
        new_distribution(weights(len(p_labels)), p_labels, renormalize=True),
        new_distribution(weights(len(q_labels)), q_labels, renormalize=True),
    )


class TestAlignment:
    @given(overlapping_pair())
    def test_one_map_matches_the_three_path_reference(self, pair):
        p, q = pair
        labels, pw, qw = _aligned(p, q)
        reference = three_path_aligned(p, q)
        assert (labels, pw, qw) == reference
        assert [repr(x) for x in qw] == [repr(x) for x in reference[2]]
        # bench/tracer.py calls an alignment same-order when its p weights
        # are p.probs itself
        assert (pw is p.probs) == (reference[1] is p.probs)

    @given(pair_and_permuted_q())
    def test_relabelled_q_matches_same_order_bit_for_bit(self, pqs):
        p, q, q_perm = pqs
        assert _aligned(p, q_perm) == _aligned(p, q)
        for f in (total_variation, kl_divergence, hellinger_affinity, overlap_identities):
            assert repr(f(p, q_perm)) == repr(f(p, q))
        witness = dv_optimal_witness(p, q_perm)
        assert witness.values == dv_optimal_witness(p, q).values
        assert repr(dv_value(p, q_perm, witness)) == repr(dv_value(p, q, witness))

    @pytest.mark.parametrize(
        "q_support, q_probs, labels, pw, qw",
        [
            # equal length, different label sets: the one-lookup path misses
            (("b", "c", "d"), (0.5, 0.25, 0.25), ("a", "b", "c", "d"),
             (0.5, 0.25, 0.25, 0.0), (0.0, 0.5, 0.25, 0.25)),
            # q a strict superset of p, q-only labels in q's order
            (("e", "c", "a", "d", "b"), (0.1, 0.2, 0.3, 0.15, 0.25),
             ("a", "b", "c", "e", "d"),
             (0.5, 0.25, 0.25, 0.0, 0.0), (0.3, 0.25, 0.2, 0.1, 0.15)),
            # p a strict superset of q
            (("c", "a"), (0.75, 0.25), ("a", "b", "c"),
             (0.5, 0.25, 0.25), (0.25, 0.0, 0.75)),
            # disjoint supports
            (("z", "y"), (0.5, 0.5), ("a", "b", "c", "z", "y"),
             (0.5, 0.25, 0.25, 0.0, 0.0), (0.0, 0.0, 0.0, 0.5, 0.5)),
        ],
    )
    def test_union_order_and_weights(self, q_support, q_probs, labels, pw, qw):
        p = Distribution(("a", "b", "c"), (0.5, 0.25, 0.25))
        assert _aligned(p, Distribution(q_support, q_probs)) == (labels, pw, qw)


# -- reference kernels --------------------------------------------------------
#
# The pair ops written one Python-level step per atom, kept as the reference
# for the single-pass kernels: each kernel must match its copy bit for bit.


def ref_log_ratio(a, b):
    if a == b:
        return 0.0
    if a >= sys.float_info.min and b >= sys.float_info.min:
        if 0.5 * b <= a <= 2.0 * b:
            return math.log1p((a - b) / b)
        return math.log(a) - math.log(b)
    ratio = a / b
    if ratio == 0.0 or math.isinf(ratio):
        return math.log(a) - math.log(b)
    return math.log(ratio)


def ref_total_variation(pw, qw):
    return min(0.5 * math.fsum(abs(a - b) for a, b in zip(pw, qw)), 1.0)


def ref_kl_divergence(pw, qw):
    terms = []
    for a, b in zip(pw, qw):
        if a <= 0.0:
            continue
        if b <= 0.0:
            return math.inf
        terms.append(a * ref_log_ratio(a, b))
    return max(0.0, math.fsum(terms))


def ref_hellinger_affinity(pw, qw):
    # The sum of the per-atom terms, then 1 on identical weights and the
    # clamp to 1 that keep it in range.
    total = math.fsum(
        a if a == b else math.sqrt(a) * math.sqrt(b) for a, b in zip(pw, qw)
    )
    return 1.0 if pw == qw else min(total, 1.0)


def ref_overlap_identities(pw, qw):
    return (math.fsum(min(a, b) for a, b in zip(pw, qw)),
            math.fsum(max(a, b) for a, b in zip(pw, qw)))


def ref_optimal_witness(pw, qw):
    values = []
    for a, b in zip(pw, qw):
        if (a > 0.0) != (b > 0.0):
            return None
        values.append(0.0 if a == 0.0 else ref_log_ratio(a, b))
    return tuple(values)


def ref_log_mean_exp(weights, values):
    shift = max(v for w, v in zip(weights, values) if w > 0.0)
    total = math.fsum(
        w * math.exp(v - shift) for w, v in zip(weights, values) if w > 0.0
    )
    return shift + math.log(total)


def ref_dv_value(pw, qw, values):
    return math.fsum(w * v for w, v in zip(pw, values)) - ref_log_mean_exp(qw, values)


def ref_hoeffding_step_check(qw, values):
    mean_q = math.fsum(w * v for w, v in zip(qw, values))
    sup_norm = max(map(abs, values))
    return mean_q + 0.5 * sup_norm**2 - ref_log_mean_exp(qw, values)


def ref_mean_difference(pw, qw, values):
    return math.fsum(v * (a - b) for a, b, v in zip(pw, qw, values))


def ref_event_mass(weights, flags):
    if all(flags):
        return 1.0
    mass = math.fsum(w for w, keep in zip(weights, flags) if keep)
    return min(max(mass, 0.0), 1.0)


def ref_witness_error(values):
    for i, v in enumerate(values):
        if not math.isfinite(v):
            return f"values[{i}]: {v!r} is not finite"
    return None


def ref_draw_weights(rng, atoms, concentration):
    exponent = 1.0 / concentration
    raw = [(1.0 - rng.random()) ** exponent for _ in range(atoms)]
    total = math.fsum(raw)
    floored = [max(w / total, WEIGHT_FLOOR) for w in raw]
    total = math.fsum(floored)
    return tuple(w / total for w in floored)


def hexes(x):
    """float.hex of a float, or of each float in a (nested) tuple."""
    if isinstance(x, float):
        return x.hex()
    return tuple(map(hexes, x))


def _labelled(support, probs):
    return Distribution(tuple(support), tuple(probs))


_W = 0.5 + 4e-10  # valid within SUM_TOLERANCE; two of them sum above 1

#: Pairs covering each branch of the kernels, by name.
KERNEL_PAIRS = {
    "same_order": (dist(0.1, 0.2, 0.3, 0.4), dist(0.25, 0.35, 0.3, 0.1)),
    "relabelled": (
        _labelled("abcd", (0.1, 0.2, 0.3, 0.4)),
        _labelled("dcba", (0.1, 0.3, 0.35, 0.25)),
    ),
    "p_only_label": (
        _labelled("abc", (0.2, 0.3, 0.5)),
        _labelled("ba", (0.4, 0.6)),
    ),
    "q_only_label": (
        _labelled("xy", (0.7, 0.3)),
        _labelled("yzx", (0.2, 0.1, 0.7)),
    ),
    "zero_weights": (dist(0.0, 0.5, 0.5), dist(0.0, 0.4, 0.6)),
    "zero_in_q_only": (dist(0.2, 0.3, 0.5), dist(0.5, 0.5, 0.0)),
    "subnormal": (dist(1e-310, 0.5, 0.5), dist(5e-324, 0.4, 0.6)),
    "subnormal_ratio_overflows": (dist(1.0, 0.0), dist(5e-324, 1.0)),
    "subnormal_against_normal": (dist(5e-324, 1.0), dist(1e-300, 1.0)),
    "equal_atoms": (dist(0.2, 0.3, 0.5), dist(0.2, 0.4, 0.4)),
    "identical": (dist(_W, _W), dist(_W, _W)),
    # p = q/2, p = 2q and p = q atomwise, then just outside q/2 and 2q
    "at_half_and_twice": (dist(0.25, 0.5, 0.25), dist(0.5, 0.25, 0.25)),
    "just_outside_half_and_twice": (
        dist(math.nextafter(0.25, 0.0), math.nextafter(0.5, 1.0), 0.25),
        dist(0.5, 0.25, 0.25),
    ),
    "weight_floor": (dist(1e-12, 1e-12, 1.0 - 2e-12), dist(1e-12, 0.5, 0.5 - 1e-12)),
    "signed_zero": (dist(-0.0, 1.0), dist(0.0, 1.0)),
    "summing_above_one": (dist(_W, _W), dist(_W, math.nextafter(_W, 1.0))),
}


def _random_witness(n, seed):
    rng = random.Random(seed)
    return tuple(rng.uniform(-3.0, 3.0) for _ in range(n))


class TestKernelReference:
    """Every rewritten kernel against its reference copy, by float.hex."""

    @staticmethod
    def check(p, q, seed=0):
        _, pw, qw = _aligned(p, q)
        assert hexes(total_variation(p, q)) == hexes(ref_total_variation(pw, qw))
        assert hexes(kl_divergence(p, q)) == hexes(ref_kl_divergence(pw, qw))
        assert hexes(hellinger_affinity(p, q)) == hexes(ref_hellinger_affinity(pw, qw))
        assert hexes(overlap_identities(p, q)) == hexes(ref_overlap_identities(pw, qw))
        expected = ref_optimal_witness(pw, qw)
        if expected is None:
            with pytest.raises(SupportMismatchError):
                dv_optimal_witness(p, q)
        else:
            assert hexes(dv_optimal_witness(p, q).values) == hexes(expected)
        witnesses = [_random_witness(len(pw), seed)]
        if expected is not None:
            witnesses.append(expected)
        for values in witnesses:
            f = WitnessFunction(values)
            assert hexes(dv_value(p, q, f)) == hexes(ref_dv_value(pw, qw, values))
            assert hexes(hoeffding_step_check(p, q, f)) == hexes(
                ref_hoeffding_step_check(qw, values)
            )
            assert hexes(_mean_difference(pw, qw, values)) == hexes(
                ref_mean_difference(pw, qw, values)
            )
        rng = random.Random(seed)
        for _ in range(4):
            flags = tuple(rng.random() < 0.5 for _ in pw)
            event = EventSubset(flags)
            for weights in (pw, qw):
                assert hexes(event_mass(weights, event)) == hexes(
                    ref_event_mass(weights, flags)
                )

    @pytest.mark.parametrize("name", KERNEL_PAIRS)
    def test_branch_pairs(self, name):
        p, q = KERNEL_PAIRS[name]
        self.check(p, q)
        self.check(q, p)

    def test_seeded_pairs_same_order_and_relabelled(self):
        for i, (p, q) in enumerate(seeded_pairs(60, 40, seed=23)):
            order = random.Random(i).sample(range(len(q)), len(q))
            relabelled = _labelled(
                (q.support[j] for j in order), (q.probs[j] for j in order)
            )
            self.check(p, q, seed=i)
            self.check(p, relabelled, seed=i)

    @given(overlapping_pair())
    def test_overlapping_pairs(self, pair):
        self.check(*pair)

    @pytest.mark.parametrize(
        "values",
        [(math.inf,), (1.0, math.nan), (0.0, -math.inf, math.nan), (2.0, 1.0, -math.inf)],
    )
    def test_witness_error_names_the_first_non_finite_value(self, values):
        with pytest.raises(OutOfRangeError) as exc:
            WitnessFunction(values)
        assert str(exc.value) == ref_witness_error(values)

    def test_seeded_draws(self):
        cases = itertools.product(range(20), (2, 17, 64), (1.0, 0.3, 0.01))
        for seed, atoms, concentration in cases:
            drawn = _draw_distribution(random.Random(seed), atoms, concentration)
            expected = ref_draw_weights(random.Random(seed), atoms, concentration)
            assert hexes(drawn.probs) == hexes(expected)
            assert drawn.support == tuple(map(str, range(atoms)))
        concentrations = (1.0, 0.1, 0.01)
        rng, reference = random.Random(5), random.Random(5)
        for t, (p, q) in enumerate(_seeded_pairs(rng, 50, 64, concentrations)):
            n, c = reference.randint(2, 64), concentrations[t % 3]
            expected = ref_draw_weights(reference, n, c), ref_draw_weights(reference, n, c)
            assert hexes((p.probs, q.probs)) == hexes(expected)
            assert p.support is q.support == tuple(map(str, range(n)))


def _optimal_witness_or_none(p, q, f):
    try:
        return dv_optimal_witness(p, q).values
    except SupportMismatchError:
        return None


#: Every pair op, by name, given the pair and a witness of the aligned size.
MEMO_OPS = {
    "tv": lambda p, q, f: total_variation(p, q),
    "kl": lambda p, q, f: kl_divergence(p, q),
    "affinity": lambda p, q, f: hellinger_affinity(p, q),
    "overlap": lambda p, q, f: overlap_identities(p, q),
    "witness": _optimal_witness_or_none,
    "dv": dv_value,
    "hoeffding": hoeffding_step_check,
}


def memo_ops(p, q, names=MEMO_OPS):
    """The named pair ops of (p, q) by float.hex, in order, the witness ones
    at a seeded witness of the aligned size; the optimal witness is None
    where it does not exist."""
    f = WitnessFunction(_random_witness(len(three_path_aligned(p, q)[0]), 0))
    out = {}
    for name in names:
        value = MEMO_OPS[name](p, q, f)
        out[name] = None if value is None else hexes(value)
    return out


def reference_ops(p, q):
    """``memo_ops`` from the three-path alignment and the reference kernels."""
    _, pw, qw = three_path_aligned(p, q)
    values = _random_witness(len(pw), 0)
    witness = ref_optimal_witness(pw, qw)
    return {
        "tv": hexes(ref_total_variation(pw, qw)),
        "kl": hexes(ref_kl_divergence(pw, qw)),
        "affinity": hexes(ref_hellinger_affinity(pw, qw)),
        "overlap": hexes(ref_overlap_identities(pw, qw)),
        "witness": None if witness is None else hexes(witness),
        "dv": hexes(ref_dv_value(pw, qw, values)),
        "hoeffding": hexes(ref_hoeffding_step_check(qw, values)),
    }


def fresh(d):
    """An equal distribution with an empty alignment memo."""
    return Distribution(d.support, d.probs)


class TestAlignmentMemo:
    """``_aligned`` memoises a relabelled pair's alignment on q; every op
    must give the bits of the three-path alignment and the reference kernels
    whether the memo misses, hits, or holds another p's entry."""

    @given(overlapping_pair())
    def test_every_op_on_a_miss(self, pair):
        p, q = pair
        expected = reference_ops(p, q)
        for name in MEMO_OPS:
            q = fresh(q)
            assert q._align is None
            assert memo_ops(p, q, [name])[name] == expected[name]

    @given(overlapping_pair())
    def test_every_op_on_a_hit(self, pair):
        p, q = pair
        _aligned(p, q)
        if p.support != q.support:
            assert q._align[0] is p.support
        assert memo_ops(p, q) == reference_ops(p, q)
        assert _aligned(p, q) == three_path_aligned(p, q)

    @given(overlapping_pair(), overlapping_pair())
    def test_against_p1_then_p2_then_p1(self, pair1, pair2):
        p1, q = pair1
        p2 = pair2[0]
        for p in (p1, p2, p1):
            assert memo_ops(p, q) == reference_ops(p, q)
            assert _aligned(p, q) == three_path_aligned(p, q)

    def test_two_ps_sharing_one_label_tuple(self):
        # The memo holds q's side only: a second p on the same label tuple
        # hits it with its own weights.
        labels = tuple("abcde")
        p1 = Distribution(labels, (0.1, 0.2, 0.3, 0.25, 0.15))
        p2 = Distribution(labels, (0.4, 0.05, 0.05, 0.3, 0.2))
        q = _labelled("ecabd", (0.3, 0.1, 0.2, 0.15, 0.25))
        for p in (p1, p2, p1, p2):
            assert memo_ops(p, q) == reference_ops(p, q)
            assert q._align[0] is labels
            assert _aligned(p, q)[1] is p.probs

    def test_seeded_pairs_sharing_one_label_tuple(self):
        # _seeded_pairs gives both distributions of a pair one label tuple;
        # each is aligned in turn against a relabelled copy of the second.
        for i, (p, q) in enumerate(_seeded_pairs(random.Random(3), 40, 12, (1.0, 0.3))):
            order = random.Random(i).sample(range(len(q)), len(q))
            r = _labelled((q.support[j] for j in order), (q.probs[j] for j in order))
            for a in (p, q, p):
                assert memo_ops(a, r) == reference_ops(a, r)
            if r.support != p.support:  # not drawn in the same order
                assert r._align[0] is p.support is q.support

    def test_q_only_labels(self):
        p = _labelled("xy", (0.7, 0.3))
        q = _labelled("yzxw", (0.2, 0.1, 0.6, 0.1))
        for _ in range(2):
            assert memo_ops(p, q) == reference_ops(p, q)
            assert _aligned(p, q) == three_path_aligned(p, q)
            assert q._align[3] == 2
        assert memo_ops(q, p) == reference_ops(q, p)
        assert kl_divergence(q, p) == math.inf

    @given(overlapping_pair())
    def test_reversed_pair(self, pair):
        # kl(q, p) memoises on p while kl(p, q) keeps its entry on q
        p, q = pair
        for a, b in ((p, q), (q, p), (p, q), (q, p)):
            assert memo_ops(a, b) == reference_ops(a, b)


class TestSubsetOracle:
    def test_three_atom_supremum(self):
        assert tv_subset_oracle(P3, Q3) == pytest.approx(0.3, abs=1e-15)

    def test_attained_at_third_atom(self):
        s = EventSubset.from_indices(3, [2])
        attained = event_mass(P3.probs, s) - event_mass(Q3.probs, s)
        assert attained == pytest.approx(tv_subset_oracle(P3, Q3), abs=1e-15)

    def test_identity_attained_at_empty_set(self):
        assert tv_subset_oracle(P3, P3) == 0.0

    def test_disjoint(self):
        assert tv_subset_oracle(bernoulli(1.0), bernoulli(0.0)) == 1.0

    def test_cap(self):
        big = new_distribution([1.0 / 21] * 21, renormalize=True)
        with pytest.raises(TooLargeError):
            tv_subset_oracle(big, big)

    def test_matches_total_variation_exhaustively(self):
        for p, q in seeded_pairs(40, 12, seed=11):
            assert tv_subset_oracle(p, q) == pytest.approx(
                total_variation(p, q), abs=1e-12
            )


class TestKlDivergence:
    def test_bernoulli_value_matches_closed_form(self):
        # 0.5 log(1/(1 - 4 * 0.1^2)) for the (1/2, 1/2 + 0.1) pair
        kl = kl_divergence(bernoulli(0.5), bernoulli(0.6))
        assert kl == pytest.approx(-0.5 * math.log1p(-0.04), abs=1e-15)
        assert kl == pytest.approx(0.020410997260127572, abs=1e-15)

    def test_identity_is_exactly_zero(self):
        assert kl_divergence(P3, P3) == 0.0

    def test_support_mismatch_is_infinite(self):
        assert kl_divergence(bernoulli(0.5), bernoulli(0.0)) == math.inf

    def test_mass_escaping_p_support_is_fine(self):
        # q may put mass where p has none; only the reverse is infinite
        p = dist(0.5, 0.5, 0.0)
        q = dist(0.25, 0.25, 0.5)
        assert math.isfinite(kl_divergence(p, q))
        assert kl_divergence(q, p) == math.inf

    def test_three_atom_value(self):
        assert kl_divergence(P3, Q3) == pytest.approx(0.2332113080895541, abs=1e-15)

    def test_asymmetric(self):
        assert kl_divergence(P3, Q3) != kl_divergence(Q3, P3)

    def test_rounding_never_makes_it_negative(self):
        # both pairs are valid within the weight-sum tolerance; the raw
        # sum of the two terms is about -2.7e-322
        kl = kl_divergence(dist(5e-324, 1.0), dist(1e-300, 1.0))
        assert kl >= 0.0

    def test_overflowing_ratio_falls_back_to_the_log_difference(self):
        # 1.0 / 5e-324 overflows, so the log ratio is log(1) - log(5e-324)
        p = Distribution(("0", "1"), (1.0, 0.0))
        q = Distribution(("0", "1"), (5e-324, 1.0))
        kl = kl_divergence(p, q)
        assert kl == math.log(1.0) - math.log(5e-324) == 744.4400719213812
        assert oracle.ulps(kl, oracle.kl_divergence(p.probs, q.probs)) <= 1

    @given(integer_weight_pair())
    def test_nonnegative_and_zero_iff_equal(self, pair):
        p, q = pair
        kl = kl_divergence(p, q)
        assert kl >= 0.0
        if p.probs == q.probs:
            assert kl == 0.0
        else:
            assert kl > 0.0


class TestBinaryClosedForms:
    @pytest.mark.parametrize(
        "a, b, expected",
        [
            (0.0, 0.5, math.log(2)),
            (0.3, 0.3, 0.0),
            (0.5, 1.0, math.inf),
            (0.5, 0.0, math.inf),
            (0.0, 0.0, 0.0),
            (1.0, 1.0, 0.0),
            (1.0, 0.25, math.log(4)),
            (0.0, 0.75, math.log(4)),
        ],
    )
    def test_boundary_cases(self, a, b, expected):
        assert binary_kl(a, b) == pytest.approx(expected, abs=1e-15)

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            binary_kl(-0.1, 0.5)
        with pytest.raises(OutOfRangeError):
            binary_tv(0.5, 1.2)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_agrees_with_generic_divergence(self, a, b):
        # absolute agreement to 1e-15 holds at ordinary magnitudes; for
        # subnormal inputs the divergence reaches ~700 where one ulp is
        # already 1e-13, so a relative term covers the extreme tail
        closed = binary_kl(a, b)
        generic = kl_divergence(bernoulli(a), bernoulli(b))
        if math.isinf(closed):
            assert math.isinf(generic)
        else:
            assert closed == pytest.approx(generic, abs=1e-15, rel=4e-15)
        assert binary_tv(a, b) == pytest.approx(
            total_variation(bernoulli(a), bernoulli(b)), abs=1e-15
        )


    def test_near_equal_pair_is_not_negative(self):
        # the two terms cancel; their fsum is -1.1e-17
        assert binary_kl(0.3131716196965183, 0.3131716196965186) == 0.0

    @given(st.floats(min_value=1e-3, max_value=0.999), st.integers(1, 50))
    def test_never_negative_a_few_ulps_apart(self, a, ulps):
        b = a
        for _ in range(ulps):
            b = math.nextafter(b, 1.0)
        assert binary_kl(a, b) >= 0.0
        assert binary_kl(b, a) >= 0.0


class TestHellingerAffinity:
    def test_bernoulli_value(self):
        assert hellinger_affinity(bernoulli(0.5), bernoulli(0.6)) == pytest.approx(
            0.9949361530051242, abs=1e-15
        )

    def test_identity_is_one(self):
        assert hellinger_affinity(P3, P3) == 1.0

    def test_disjoint_is_zero(self):
        assert hellinger_affinity(bernoulli(1.0), bernoulli(0.0)) == 0.0

    def test_identity_is_one_however_the_weights_round(self):
        # Identical weights sum to 1 only within SUM_TOLERANCE; the affinity
        # of p with itself, relabelled or not, is still exactly 1.
        for seed in range(2000):
            p = random_distribution(seed, 17, 1.0)
            relabelled = Distribution(p.support[::-1], p.probs[::-1])
            assert hellinger_affinity(p, p) == hellinger_affinity(p, relabelled) == 1.0

    def test_clamped_to_one_on_pairs_summing_above_one(self):
        w = 0.5 + 4e-10
        p = Distribution(("a", "b"), (w, w))
        q = Distribution(("a", "b"), (w, math.nextafter(w, 1.0)))
        assert hellinger_affinity(p, p) == hellinger_affinity(p, q) == 1.0
        # so the hellinger chain holds at the pair, with margin 0
        aff2 = hellinger_affinity(p, p) ** 2
        assert _hellinger_chain(total_variation(p, p), kl_divergence(p, p), aff2) == 0.0

    @given(integer_weight_pair())
    def test_symmetric_unit_range_one_iff_equal(self, pair):
        p, q = pair
        aff = hellinger_affinity(p, q)
        assert aff == hellinger_affinity(q, p)
        assert 0.0 <= aff <= 1.0
        if p.probs != q.probs:
            assert aff < 1.0


class TestOverlapIdentities:
    def test_three_atom(self):
        min_sum, max_sum = overlap_identities(P3, Q3)
        assert min_sum == pytest.approx(0.7, abs=1e-15)
        assert max_sum == pytest.approx(1.3, abs=1e-15)

    def test_identity(self):
        assert overlap_identities(P3, P3) == (1.0, 1.0)

    def test_disjoint(self):
        assert overlap_identities(bernoulli(1.0), bernoulli(0.0)) == (0.0, 2.0)

    def test_both_recover_tv(self):
        for p, q in seeded_pairs(60, 12, seed=5):
            tv = total_variation(p, q)
            min_sum, max_sum = overlap_identities(p, q)
            assert 1.0 - min_sum == pytest.approx(tv, abs=1e-12)
            assert max_sum - 1.0 == pytest.approx(tv, abs=1e-12)


class TestBhDecomposition:
    def test_bernoulli_shift(self):
        d = bh_decomposition(bernoulli(0.5), bernoulli(0.6))
        assert d.u == pytest.approx((1.2, 0.8), abs=1e-15)
        assert d.v == pytest.approx((0.2, 0.0), abs=1e-15)
        assert d.w == pytest.approx((0.0, 0.2), abs=1e-15)
        assert d.mean_v == pytest.approx(0.1, abs=1e-15)
        assert d.mean_w == pytest.approx(0.1, abs=1e-15)

    def test_identity(self):
        d = bh_decomposition(P3, P3)
        assert all(x == 1.0 for x in d.u)
        assert all(x == 0.0 for x in d.v)
        assert all(x == 0.0 for x in d.w)

    def test_mass_escaping_p_support(self):
        # E_p[W] still equals TV even though half of q's mass lives outside
        # p's support; E_p[V] falls short by exactly that escaped mass.
        p = dist(0.5, 0.5, 0.0)
        q = dist(0.25, 0.25, 0.5)
        d = bh_decomposition(p, q)
        assert d.u == (0.5, 0.5)
        assert d.mean_w == pytest.approx(0.5, abs=1e-15)
        assert d.mean_w == pytest.approx(total_variation(p, q), abs=1e-12)
        assert d.mean_v == pytest.approx(total_variation(p, q) - 0.5, abs=1e-12)

    def test_weights_summing_within_tolerance(self):
        # E_p[W] - TV = (sum p - sum q)/2 = 4e-10 here, inside SUM_TOLERANCE
        p = Distribution(("a", "b"), (0.5 + 4e-10, 0.5 + 4e-10))
        q = Distribution(("a", "b"), (0.3, 0.7))
        d = bh_decomposition(p, q)
        assert d.mean_w == pytest.approx(total_variation(p, q), abs=1e-9)
        assert d.mean_v == pytest.approx(total_variation(p, q), abs=1e-9)

    def test_identities_on_random_pairs(self):
        for p, q in seeded_pairs(60, 16, seed=23):
            d = bh_decomposition(p, q)
            tv = total_variation(p, q)
            assert d.mean_v == pytest.approx(tv, abs=1e-12)
            assert d.mean_w == pytest.approx(tv, abs=1e-12)
            for ui, vi, wi in zip(d.u, d.v, d.w):
                assert vi >= 0.0 and wi >= 0.0
                assert vi * wi == 0.0
                assert (1.0 + vi) * (1.0 - wi) == pytest.approx(
                    ui, rel=1e-12, abs=1e-12
                )


class TestQuantize:
    def test_third_atom_event(self):
        s = EventSubset.from_indices(3, [2])
        bp, bq = quantize(P3, Q3, s)
        assert bp.probs == (0.5, 0.5)
        assert bq.probs == pytest.approx((0.2, 0.8), abs=1e-15)

    def test_empty_and_full(self):
        n = len(P3)
        bp, bq = quantize(P3, Q3, EventSubset.empty(n))
        assert bp.probs[0] == 0.0 and bq.probs[0] == 0.0
        bp, bq = quantize(P3, Q3, EventSubset.full(n))
        assert bp.probs[0] == 1.0 and bq.probs[0] == 1.0

    @pytest.mark.parametrize("size", [2, 4])
    def test_flag_count_must_match_the_weights(self, size):
        with pytest.raises(MismatchedSupportsError, match=f"^subset: {size} flags for 3 atoms$"):
            event_mass(P3.probs, EventSubset.full(size))

    @pytest.mark.parametrize("flags, message", [
        (None, r"^flags: None is not iterable$"),
        (3, r"^flags: 3 is not iterable$"),
        ("ab", r"^flags: 'ab' is a str, not a sequence$"),
        ({True: 0, False: 0}, r"^flags: \{True: 0, False: 0\} is a dict, not a sequence$"),
        ((True, 1), r"^flags\[1\]: 1 is not a bool$"),
        ((False, True, 0.0), r"^flags\[2\]: 0.0 is not a bool$"),
    ], ids=["none", "int", "str", "mapping", "int_flag", "float_flag"])
    def test_flags_must_be_bools(self, flags, message):
        with pytest.raises(OutOfRangeError, match=message):
            EventSubset(flags)

    def test_flags_are_read_once_into_a_tuple(self):
        s = EventSubset(f for f in [False, True])
        assert s.flags == (False, True)
        assert event_mass(bernoulli(0.3).probs, s) == 0.7
        assert EventSubset([True]) == EventSubset((True,))

    def test_full_event_is_sure_however_the_weights_round(self):
        p = dist(0.25, 0.75 - 2.0**-53)
        q = dist(0.5, 0.5)
        assert math.fsum(p.probs) == 1.0 - 2.0**-53
        full = EventSubset.full(2)
        assert event_mass(p.probs, full) == 1.0
        bp, bq = quantize(p, q, full)
        assert binary_kl(bp.probs[0], bq.probs[0]) == 0.0

    def test_data_processing_never_grows_divergences(self):
        # two-point quantization by any event shrinks both KL and TV; the
        # KL side is checked at the randomized tolerance because the
        # two-point divergence is ill-conditioned when an event's mass
        # approaches 1
        for p, q in seeded_pairs(25, 8, seed=31):
            kl = kl_divergence(p, q)
            tv = total_variation(p, q)
            n = len(p)
            for indices in itertools.chain.from_iterable(
                itertools.combinations(range(n), k) for k in range(n + 1)
            ):
                s = EventSubset.from_indices(n, indices)
                bp, bq = quantize(p, q, s)
                assert binary_kl(bp.probs[0], bq.probs[0]) <= kl + 1e-10
                assert binary_tv(bp.probs[0], bq.probs[0]) <= tv + 1e-12


class TestHellingerChain:
    def test_squeeze_on_random_full_support_pairs(self):
        # 1 - tv^2 >= affinity^2 >= exp(-kl), the squeeze that turns the
        # affinity into a bridge between the two divergences
        for p, q in seeded_pairs(200, 16, seed=47):
            tv = total_variation(p, q)
            kl = kl_divergence(p, q)
            aff2 = hellinger_affinity(p, q) ** 2
            assert (1.0 - tv * tv) - aff2 >= -1e-12
            assert aff2 - math.exp(-kl) >= -1e-12


class TestPinskerConstantTightness:
    def test_ratio_approaches_two_from_above(self):
        # kl/tv^2 on the (1/2, 1/2 + eps) family is 2 + 4 eps^2 + (32/3) eps^4
        # + O(eps^6): the constant 2 cannot be improved. The generic KL path
        # sums two per-atom terms of about -eps and +eps into about 2 eps^2,
        # which leaves about 1e-14 of absolute rounding noise in the ratio at
        # the smallest eps; the additive allowance covers it.
        for eps in (1e-1, 1e-2, 1e-3):
            p, q = bernoulli(0.5), bernoulli(0.5 + eps)
            ratio = kl_divergence(p, q) / total_variation(p, q) ** 2
            remainder = abs(ratio - 2.0 - 4.0 * eps * eps)
            assert remainder <= 11.0 * eps**4 + 5e-11
        # noise-free view of the same series through the closed form
        for eps in (1e-1, 1e-2, 1e-3):
            ratio = -math.log1p(-4 * eps * eps) / (2 * eps * eps)
            remainder = ratio - 2.0 - 4.0 * eps * eps
            assert 10.0 * eps**4 <= remainder <= 11.0 * eps**4

    def test_near_equal_coins_match_closed_form(self):
        # The two coins' weights differ by far less than either, so each
        # per-atom log ratio must not cancel: the generic sum has to agree
        # with the closed form log(1/(1 - 4 tv^2)) / 2 to 1e-12 relative.
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            p, q = bernoulli(0.5), bernoulli(0.5 + eps)
            expected = kl_per_toss(total_variation(p, q))
            assert kl_divergence(p, q) == pytest.approx(expected, rel=1e-12, abs=0)
