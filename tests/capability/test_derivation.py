"""Every derivation equals its ``dataclasses.replace`` reference.

The guarded-manipulation methods build their result directly
(``capability._derive``), skipping the constructor's validation and
carrying the decoded-bounds and permission-bitmask caches over where
they still hold.  Each property here derives a value both ways and
requires the two to agree on everything observable: ``==``, ``hash``,
the decoded bounds and the permission bitmask.  The sources always
have both caches filled first, so a cache carried over where the field
changed shows up as a stale ``base``/``top`` or ``perm_bits``.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capability import (
    Capability,
    Permission as P,
    SentryType,
    attenuate_loaded,
    bounds as bounds_mod,
    compression,
    make_roots,
)
from repro.capability.errors import CapabilityError

ROOTS = make_roots()
ALL_PERMS = list(P)

perm_sets = st.sets(st.sampled_from(ALL_PERMS)).map(frozenset)
otypes = st.integers(1, 7)
sentry_types = st.sampled_from(list(SentryType))


def warm(cap: Capability) -> Capability:
    """Fill both lazy caches, as a capability in use would have them."""
    cap.base, cap.perm_bits
    return cap


def assert_same(derived: Capability, reference: Capability) -> None:
    assert derived == reference
    assert hash(derived) == hash(reference)
    assert (derived.base, derived.top) == (reference.base, reference.top)
    assert derived.perm_bits == reference.perm_bits
    # The skipped constructor checks would all have passed.
    rebuilt = Capability(
        address=derived.address,
        bounds=derived.bounds,
        perms=derived.perms,
        otype=derived.otype,
        tag=derived.tag,
        reserved=derived.reserved,
    )
    assert rebuilt == derived


@st.composite
def data_caps(draw):
    """A tagged, unsealed data capability somewhere in a 64 KiB window."""
    base = draw(st.integers(0x2000_0000, 0x2001_0000))
    length = draw(st.integers(1, 0x4000))
    perms = draw(perm_sets)
    cap = Capability.from_bounds(base, length, perms | {P.LD, P.MC})
    cap = cap.set_address(cap.base + draw(st.integers(0, cap.length - 1)))
    return warm(cap)


@st.composite
def code_caps(draw):
    """A tagged, unsealed executable capability."""
    base = draw(st.integers(0x1000, 0x8000)) & ~3
    cap = ROOTS.executable.set_address(base).set_bounds(draw(st.integers(4, 512)))
    return warm(cap.and_perms(draw(perm_sets) | {P.EX, P.LD, P.MC}))


@settings(max_examples=300, deadline=None)
@given(data_caps(), st.integers(0, 0x5000), st.booleans())
def test_set_bounds_matches_replace(cap, length, exact):
    try:
        derived = cap.set_bounds(length, exact=exact)
    except CapabilityError:
        return
    encoded, _, _ = bounds_mod.encode(cap.address, length, exact=exact)
    assert_same(derived, dataclasses.replace(cap, bounds=encoded))


@settings(max_examples=300, deadline=None)
@given(st.one_of(data_caps(), code_caps()), perm_sets)
def test_and_perms_matches_replace(cap, mask):
    derived = cap.and_perms(mask)
    reference = dataclasses.replace(
        cap, perms=compression.and_perms(cap.perms, mask)
    )
    assert_same(derived, reference)


@settings(max_examples=200, deadline=None)
@given(st.one_of(data_caps(), code_caps()), otypes)
def test_seal_and_unseal_match_replace(cap, otype):
    authority = ROOTS.sealing.set_address(otype)
    sealed = cap.seal(authority)
    assert_same(sealed, dataclasses.replace(cap, otype=otype))
    warm(sealed)
    unsealed = sealed.unseal(authority)
    assert_same(unsealed, dataclasses.replace(sealed, otype=0))


@settings(max_examples=100, deadline=None)
@given(code_caps(), sentry_types)
def test_sentries_match_replace(cap, sentry_type):
    sentry = cap.seal_sentry(sentry_type)
    assert_same(sentry, dataclasses.replace(cap, otype=int(sentry_type)))
    warm(sentry)
    entered = sentry.unseal_for_jump()
    assert_same(entered, dataclasses.replace(sentry, otype=0))


@settings(max_examples=300, deadline=None)
@given(st.one_of(data_caps(), code_caps()), perm_sets, st.booleans())
def test_attenuate_loaded_matches_replace(loaded, authority_perms, sealed):
    if sealed:
        loaded = warm(loaded.seal(ROOTS.sealing.set_address(5)))
    authority = ROOTS.memory.and_perms(authority_perms)
    perms = set(loaded.perms)
    if P.LG not in authority.perms:
        perms -= {P.GL, P.LG}
    if P.LM not in authority.perms and not loaded.is_executable:
        perms -= {P.LM, P.SD, P.SL}
    if perms == loaded.perms:
        reference = loaded
    else:
        reference = dataclasses.replace(
            loaded, perms=compression.normalize(frozenset(perms))
        )
    assert_same(attenuate_loaded(loaded, authority), reference)
