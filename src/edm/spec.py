"""Shared spec-grammar toolkit and the scenario-layer registry.

Five SimConfig fields are driven by compact spec strings -- fault plans
(``fail:3@100;slow:5@50x0.5``), endurance models (``pe:3000@0-3,10000@4-7``),
service models (``rate:800;rate:400@0-3;queue:64``), topology plans
(``add:4@128/cap:2;drain:0@192``) and redundancy schemes (``ec:4+2``).  They
share the same shape: a separator-joined list of clauses, each matched by a
small regex, ``@EPOCH`` / ``@LO-HI`` ranges, canonical ordering and number
rendering so equivalent spellings hash identically, and error messages that
name the offending clause.  This module is that shared machinery; the
per-field grammars (:mod:`edm.faults.plan`, :mod:`edm.endurance.spec`,
:mod:`edm.service.spec`, :mod:`edm.topology.spec`,
:mod:`edm.redundancy.spec`) declare their clauses on top of it instead of
each hand-rolling a parser.

:data:`LAYERS` declares each of those five scenario layers once, as data:
its config field and grammar, cache-key letter, hash rules, CLI help and
sweep-axis separator, and report label and columns.  ``SimConfig``, the
CLI, ``default_grid`` and the report loop over it instead of naming layers.

Porting contract: the canonical strings this toolkit renders are
**byte-identical** to the ones the previous hand-rolled parsers produced
(pinned by tests/test_spec_grammar.py), so ``config_hash`` values, cache-key
suffixes, and every previously written cache entry survive the port.

Deliberately dependency-free (stdlib only, no engine imports) so the config
layer can parse and validate specs without import cycles.
"""

from __future__ import annotations

import importlib
import re
from dataclasses import dataclass
from typing import Any, Callable

__all__ = [
    "LAYERS",
    "ClauseRule",
    "Layer",
    "SpecError",
    "SpecGrammar",
    "format_fixed",
    "format_g",
    "render_range",
    "span_fragment",
    "validate_bands",
]

#: Regex fragment matching an optional ``@LO`` / ``@LO-HI`` range suffix.
#: Groups: (lo, hi); both None when the suffix is absent, hi None for ``@LO``.
RANGE_SUFFIX = r"(?:@(\d+)(?:-(\d+))?)?"

#: Regex fragment matching an unsigned decimal number (no exponent form --
#: canonical rendering must round-trip, see :func:`format_fixed`).
NUMBER = r"\d+(?:\.\d+)?"


class SpecError(ValueError):
    """A spec string failed to parse or validate.

    Subclasses ``ValueError`` so existing ``except ValueError`` /
    ``pytest.raises(ValueError)`` call sites keep working; messages always
    name the offending clause (or band) verbatim.
    """


def format_g(x: float) -> str:
    """Shortest-form number rendering (``%g``), for factors and ratios."""
    return f"{x:g}"


def format_fixed(x: float) -> str:
    """Fixed-point number rendering, never scientific.

    ``pe:1000000`` and ``rate:1000000`` must round-trip, and the clause
    grammars have no exponent form, so ``%g`` (which switches to ``1e+06``)
    is not an option.
    """
    return format(x, ".6f").rstrip("0").rstrip(".")


def span_fragment(lo: int | None, hi: int | None) -> tuple[int, int] | None:
    """Normalize matched range groups: ``@LO`` means ``@LO-LO``."""
    if lo is None:
        return None
    return (int(lo), int(hi) if hi is not None else int(lo))


def render_range(lo: int | None, hi: int | None) -> str:
    """Canonical range suffix: empty for a default, ``@LO`` or ``@LO-HI``."""
    if lo is None:
        return ""
    if lo == hi:
        return f"@{lo}"
    return f"@{lo}-{hi}"


@dataclass(frozen=True)
class ClauseRule:
    """One clause kind: a compiled regex plus a constructor for its matches."""

    name: str
    regex: re.Pattern
    build: Callable[[re.Match], Any]


class SpecGrammar:
    """Separator-joined clause grammar: tokenize, match, canonicalize.

    ``clause_noun`` names one clause in error messages ("fault event",
    "endurance band", "service clause"); ``expected`` describes the accepted
    clause shapes, quoted verbatim after "expected" in the parse error.
    """

    def __init__(
        self,
        name: str,
        rules: tuple[ClauseRule, ...],
        sep: str = ";",
        clause_noun: str = "clause",
        expected: str = "",
    ):
        self.name = name
        self.rules = rules
        self.sep = sep
        self.clause_noun = clause_noun
        self.expected = expected

    def split(self, spec: str | None) -> list[str]:
        """Tokenize a spec into stripped clause strings.

        The empty string, whitespace, and the word ``"none"`` all mean "no
        clauses" -- every grammar's spelling of the disabled feature.
        """
        spec = (spec or "").strip()
        if not spec or spec == "none":
            return []
        return [part.strip() for part in spec.split(self.sep) if part.strip()]

    def parse_clause(self, text: str) -> Any:
        """Match one clause against the rules; raises naming the clause."""
        for rule in self.rules:
            m = rule.regex.match(text)
            if m:
                return rule.build(m)
        raise SpecError(
            f"bad {self.clause_noun} {text!r}; expected {self.expected}"
        )

    def parse(self, spec: str | None) -> list[Any]:
        """Tokenize and match every clause (no cross-clause validation)."""
        return [self.parse_clause(part) for part in self.split(spec)]


def validate_bands(
    bands,
    num_osds: int | None,
    *,
    spec: str,
    spec_noun: str,
    band_noun: str,
    value_noun: str,
    render: Callable[[Any], str],
    value: Callable[[Any], float] = lambda b: b.value,
    missing_noun: str = "rating",
    claim_verb: str = "rated",
) -> None:
    """Shared validation for ``VALUE@LO-HI`` band sets with one default.

    Bands are objects exposing ``lo`` / ``hi`` (``lo is None`` marks the
    default band) plus a value accessor.  Checks: at most one default band,
    positive values, non-inverted in-range OSD spans, no overlap, and -- when
    ``num_osds`` is known and no default exists -- full cluster coverage.
    Error messages name the offending band via ``render``.
    """
    defaults = [b for b in bands if b.lo is None]
    if len(defaults) > 1:
        raise SpecError(
            f"{spec_noun} {spec!r}: at most one default (range-free) "
            f"band is allowed"
        )
    claimed: set[int] = set()
    for band in bands:
        if value(band) <= 0:
            raise SpecError(
                f"{band_noun} {render(band)!r}: {value_noun} must be > 0"
            )
        if band.lo is None:
            continue
        if band.lo > band.hi:
            raise SpecError(
                f"{band_noun} {render(band)!r}: range is inverted"
            )
        if num_osds is not None and band.hi >= num_osds:
            raise SpecError(
                f"{band_noun} {render(band)!r}: OSD {band.hi} out of range "
                f"for a {num_osds}-OSD cluster"
            )
        overlap = claimed.intersection(range(band.lo, band.hi + 1))
        if overlap:
            raise SpecError(
                f"{band_noun} {render(band)!r}: OSD {min(overlap)} is "
                f"{claim_verb} by more than one band"
            )
        claimed.update(range(band.lo, band.hi + 1))
    if num_osds is not None and bands and not defaults:
        uncovered = sorted(set(range(num_osds)) - claimed)
        if uncovered:
            raise SpecError(
                f"{spec_noun} {spec!r}: OSDs {uncovered} have no "
                f"{missing_noun}; add a default band or cover the whole cluster"
            )


@dataclass(frozen=True)
class Layer:
    """One scenario layer's declarative wiring.

    ``spec_class`` names (as ``"module:Class"``, imported on first use so the
    config layer stays cycle-free) the class whose
    ``parse(spec, num_osds).spec`` canonicalises the ``field`` spec.  A
    non-empty spec appends ``-<letter><digest>`` to the cache name and adds
    ``hash_marker`` to the config hash; an empty one is dropped from the hash
    unless ``hash_empty``.  ``noun`` and ``example`` make the CLI help,
    ``axis_sep`` joins several specs into one sweep axis, ``off`` labels the
    layer's off state in reports (and CLI help), and ``columns`` are the
    ``(metrics key, header, format)`` report columns its runs add.
    """

    field: str
    spec_class: str
    letter: str
    noun: str
    example: str
    axis_sep: str
    off: str
    columns: tuple[tuple[str, str, str], ...] = ()
    hash_empty: bool = True
    hash_marker: tuple[tuple[str, int], ...] = ()

    def parse(self, spec: str, num_osds: int | None = None) -> Any:
        """Parse ``spec`` with this layer's grammar (see ``spec_class``)."""
        module, _, name = self.spec_class.partition(":")
        return getattr(importlib.import_module(module), name).parse(spec, num_osds=num_osds)

    def split_axis(self, value: str) -> list[str]:
        """Split a sweep-axis value into specs; no spec at all means off.

        ``axis_sep`` never occurs inside this layer's specs, so it cleanly
        separates them; ``none`` entries pass through for the grammar to
        canonicalise to ``""``.
        """
        return [p.strip() for p in value.split(self.axis_sep) if p.strip()] or [""]


#: The scenario layers, in cache-name letter order.
LAYERS = (
    Layer(
        field="faults",
        spec_class="edm.faults.plan:FaultPlan",
        letter="f",
        noun="fault scenario",
        example="fail:3@100;slow:5@50x0.5",
        axis_sep=",",
        off="healthy",
    ),
    Layer(
        field="endurance",
        spec_class="edm.endurance.spec:EnduranceModel",
        letter="e",
        noun="endurance model",
        example="pe:3000@0-3,10000@4-7",
        axis_sep=";",
        off="unrated",
    ),
    Layer(
        field="service",
        spec_class="edm.service.spec:ServiceModel",
        letter="q",
        noun="service model",
        example="rate:800;queue:64",
        axis_sep=",",
        off="untimed",
        columns=(
            ("service_lat_p50", "lat p50", ".3g"),
            ("service_lat_p99", "lat p99", ".3g"),
            ("service_lat_p999", "lat p999", ".3g"),
            ("migration_spike_ratio", "mig spike", ".3g"),
        ),
        # Re-keys serviced configs only; see edm.config.config_hash.
        hash_marker=(("service_metrics_rev", 3),),
    ),
    Layer(
        field="topology",
        spec_class="edm.topology.spec:TopologyPlan",
        letter="t",
        noun="topology plan",
        example="add:4@128/cap:2,rate:1600;drain:0@192",
        axis_sep="|",
        off="static",
        columns=(
            ("cold_load_share_final", "cold share", ".3f"),
            ("drain_moves_total", "drain moves", ".0f"),
        ),
        hash_empty=False,
    ),
    Layer(
        field="redundancy",
        spec_class="edm.redundancy.spec:RedundancyScheme",
        letter="g",
        noun="redundancy scheme",
        example="ec:4+2",
        axis_sep=",",
        off="plain",
        columns=(
            ("reconstruction_reads_total", "recon reads", ".0f"),
            ("reconstruction_write_mb", "recon MB", ".0f"),
            ("data_loss_chunks_total", "lost chunks", ".0f"),
        ),
        hash_empty=False,
    ),
)
