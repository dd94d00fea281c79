"""gmfkit's frozen records: constructor signatures and defaults, read-only
fields, value equality and hashing, the repr, and the validators they run."""

from __future__ import annotations

import numpy as np
import pytest

from gmfkit import family_analysis
from gmfkit._record import record
from gmfkit.family_analysis import PolyFamily
from gmfkit.graded_f2 import GradedMap, PoincareSeries, series_from_coeffs, series_one
from gmfkit.jet_core import GmfClass, Jet3
from gmfkit.moduli_calc import CheckReport, SpectrumSeries, ZigzagDiagram


def test_positional_keyword_and_default_construction():
    assert GmfClass("Regular") == GmfClass(kind="Regular", index=None, reason=None)
    birth_death = GmfClass("BirthDeath", 1)
    assert (birth_death.index, birth_death.reason) == (1, None)
    assert GmfClass("Degenerate", reason="r") == GmfClass("Degenerate", None, "r")
    report = CheckReport("gysin", 3, 8, "o", True, None, ())
    assert report.notes == ()
    assert report == CheckReport(check="gysin", d=3, N=8, structure="o", ok=True,
                                 first_mismatch_degree=None, assumptions=(), notes=())
    assert CheckReport("gysin", 3, 8, "o", True, None, (), ("n",)).notes == ("n",)
    spectrum = SpectrumSeries(series_one(4), "exact")
    assert spectrum.derivation == ()
    derived = SpectrumSeries(series=series_one(4), provenance="exact", derivation=("a",))
    assert derived.derivation == ("a",)
    with pytest.raises(TypeError):
        GmfClass()
    with pytest.raises(TypeError):
        GmfClass("Regular", 0, None, "extra")
    with pytest.raises(TypeError):
        GmfClass("Regular", size=1)


def test_fields_are_read_only():
    records = [GmfClass("Regular"), PoincareSeries(0, (1, 2), 1),
               GradedMap(0, images=[[0]], shapes=[(1, 1)])]
    for r in records:
        field = next(iter(type(r).__annotations__))
        with pytest.raises(AttributeError):
            setattr(r, field, 0)
        with pytest.raises(AttributeError):
            delattr(r, field)
        with pytest.raises(AttributeError):
            r.new_attribute = 0
    gm = records[2]
    assert gm.rows == [[1]] and gm.rows is gm.rows  # cached_property still caches


def test_equality_is_by_value_within_one_class():
    @record
    class Other:
        kind: str
        index: int | None = None
        reason: str | None = None

    a = GmfClass("BirthDeath", 2)
    assert a == GmfClass("BirthDeath", 2) and a != GmfClass("BirthDeath", 1)
    assert hash(a) == hash(GmfClass("BirthDeath", 2)) == hash(("BirthDeath", 2, None))
    assert a != Other("BirthDeath", 2) and Other("BirthDeath", 2) == Other("BirthDeath", 2)
    assert a != ("BirthDeath", 2, None)


def test_equal_families_share_one_calculus_cache_entry():
    terms = (((1, 1), 0.3125), ((0, 3), 1.0))
    first, second = PolyFamily(1, 1, terms), PolyFamily(1, 1, [([1, 1], 0.3125), ([0, 3], 1)])
    assert first is not second and first == second and hash(first) == hash(second)
    calc = family_analysis._calculus(first)
    hits = family_analysis._calculus.cache_info().hits
    assert family_analysis._calculus(second) is calc
    assert family_analysis._calculus.cache_info().hits == hits + 1


def test_repr_names_every_field():
    assert repr(GmfClass("BirthDeath", 1)) == "GmfClass(kind='BirthDeath', index=1, reason=None)"
    assert repr(PoincareSeries(-1, (0, 2), 0)) == \
        "PoincareSeries(min_degree=-1, coeffs=(0, 2), truncation=0)"
    assert repr(SpectrumSeries(PoincareSeries(0, (1,), 0), "exact")) == (
        "SpectrumSeries(series=PoincareSeries(min_degree=0, coeffs=(1,), truncation=0), "
        "provenance='exact', derivation=())")


def test_validators_still_run():
    with pytest.raises(ValueError, match="quadratic matrix is not symmetric"):
        Jet3(2, 0.0, np.zeros(2), np.array([[0.0, 1.0], [0.0, 0.0]]), {})
    with pytest.raises(ValueError, match="nonnegative"):
        PoincareSeries(0, (1, -1), 1)
    # a coefficient is an int as it is given: no float, string or bool is read as one
    for coeffs in ([1.5], ["3"], [True]):
        with pytest.raises(ValueError, match="nonnegative integers"):
            series_from_coeffs(coeffs)
    with pytest.raises(ValueError, match="images for"):
        GradedMap(0, images=[[0, 0]], shapes=[(1, 1)])
    point = GradedMap(0, images=[[0]], shapes=[(1, 1)])
    with pytest.raises(ValueError, match="inconsistent diagram"):
        ZigzagDiagram(2, 0, (point,), (point,))
    with pytest.raises(ValueError, match="non-finite coefficient"):
        PolyFamily(1, 1, (((1, 1), float("nan")),))
