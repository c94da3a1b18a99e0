"""Channel model: dimensions, directions, virtual channels and spatial classes.

This module implements Definitions 1 and 5 of the paper.  A *channel* is one
direction of one dimension, optionally qualified by a virtual-channel index
and a *spatial class*.  Examples in the paper's notation:

``X+``
    the positive direction of dimension X (VC 1 implicitly),
``X2-``
    VC number 2 of the negative X direction,
``Ye+`` / ``Y+@e``
    the positive Y direction restricted to even columns (Odd-Even model).

Channels are immutable value objects; two channels are the same channel iff
all four components match.  Channels with any differing component are
*disjoint* in the sense of Definition 6 — they never share buffers and no
implicit dependency exists between them.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass, replace
from typing import ClassVar

from repro.errors import ChannelParseError

#: Canonical single-letter names for the first dimensions, matching the
#: paper's usage (X, Y, Z, then T for the 4th dimension).
_DIM_LETTERS = "XYZTUVW"

#: Sign constants.  The paper writes D+ and D-.
POS = +1
NEG = -1

_CHANNEL_RE = re.compile(
    r"""^
    (?P<dim>[A-Z])            # dimension letter
    (?P<vc>\d*)               # optional VC number (default 1)
    (?P<sign>[+\-*])          # direction, * = both (parsed by parse_star)
    (?:@(?P<cls>[A-Za-z0-9_]+))?   # optional spatial class
    $""",
    re.VERBOSE,
)


def dim_name(dim: int) -> str:
    """Return the paper-style letter for dimension index ``dim`` (0-based).

    Dimensions beyond the alphabet window are written ``D8``, ``D9``…

    >>> dim_name(0), dim_name(1), dim_name(2), dim_name(3)
    ('X', 'Y', 'Z', 'T')
    """
    if 0 <= dim < len(_DIM_LETTERS):
        return _DIM_LETTERS[dim]
    return f"D{dim + 1}"


def dim_index(name: str) -> int:
    """Inverse of :func:`dim_name`.

    >>> dim_index("X"), dim_index("T"), dim_index("D9")
    (0, 3, 8)
    """
    name = name.strip().upper()
    if len(name) == 1 and name in _DIM_LETTERS:
        return _DIM_LETTERS.index(name)
    if name.startswith("D") and name[1:].isdigit():
        return int(name[1:]) - 1
    raise ChannelParseError(f"unknown dimension name: {name!r}")


@dataclass(frozen=True, order=True)
class Channel:
    """One unidirectional (virtual) channel class.

    Parameters
    ----------
    dim:
        0-based dimension index (0 = X, 1 = Y, ...).
    sign:
        ``+1`` for the positive direction, ``-1`` for the negative one.
    vc:
        Virtual-channel number, 1-based as in the paper.  Channels that
        differ only in ``vc`` are disjoint (Assumption 5).
    cls:
        Optional spatial class tag.  Channels that differ only in ``cls``
        are disjoint (Definition 6, e.g. ``X_even`` vs ``X_odd``).  The
        empty string means "everywhere".
    """

    dim: int
    sign: int
    vc: int = 1
    cls: str = ""
    # Set per instance by __post_init__; ClassVar keeps it out of the fields.
    _hash: ClassVar[int]

    def __post_init__(self) -> None:
        if self.sign not in (POS, NEG):
            raise ChannelParseError(f"sign must be +1 or -1, got {self.sign}")
        if self.dim < 0:
            raise ChannelParseError(f"dim must be >= 0, got {self.dim}")
        if self.vc < 1:
            raise ChannelParseError(f"vc numbers are 1-based, got {self.vc}")
        # Hashed once: channels (inside wires) key every dependency graph.
        # The value is the dataclass default, so set orders do not change.
        object.__setattr__(self, "_hash", hash((self.dim, self.sign, self.vc, self.cls)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple[type[Channel], tuple[int, int, int, str]]:
        # Pickle the fields only: ``cls`` is a str, whose hash is salted per
        # process, so an unpickled channel must hash itself again.
        return Channel, (self.dim, self.sign, self.vc, self.cls)

    # -- presentation ------------------------------------------------------

    @property
    def dim_letter(self) -> str:
        """Paper-style dimension letter (``X``, ``Y``, ...)."""
        return dim_name(self.dim)

    @property
    def sign_char(self) -> str:
        """``'+'`` or ``'-'``."""
        return "+" if self.sign == POS else "-"

    def __str__(self) -> str:
        vc = "" if self.vc == 1 else str(self.vc)
        cls = f"@{self.cls}" if self.cls else ""
        return f"{self.dim_letter}{vc}{self.sign_char}{cls}"

    def __repr__(self) -> str:  # keep reprs short in test output
        return f"Channel({self!s})"

    # -- algebra -----------------------------------------------------------

    @property
    def opposite(self) -> "Channel":
        """The channel with the same dim/vc/cls and reversed direction."""
        return replace(self, sign=-self.sign)

    def same_dim(self, other: "Channel") -> bool:
        """True when both channels lie along the same dimension."""
        return self.dim == other.dim

    def forms_pair_with(self, other: "Channel") -> bool:
        """Definition 3: do the two channels form a complete D-pair?

        A pair requires the same dimension and opposite signs; VC numbers
        and spatial classes may differ (``X2+`` with ``X1-`` is a pair).
        """
        return self.dim == other.dim and self.sign == -other.sign

    def with_vc(self, vc: int) -> "Channel":
        """A copy of this channel on virtual channel ``vc``."""
        return replace(self, vc=vc)

    def with_cls(self, cls: str) -> "Channel":
        """A copy of this channel with spatial class ``cls``."""
        return replace(self, cls=cls)

    # -- parsing -----------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "Channel":
        """Parse paper notation such as ``"X+"``, ``"Y2-"``, ``"Y+@e"``.

        >>> Channel.parse("X+")
        Channel(X+)
        >>> Channel.parse("Y2-")
        Channel(Y2-)
        >>> Channel.parse("Z+@o").cls
        'o'
        """
        m = _CHANNEL_RE.match(text.strip())
        if m is None or m.group("sign") == "*":
            raise ChannelParseError(
                f"cannot parse channel {text!r} (use e.g. 'X+', 'Y2-', 'Y+@e';"
                " star notation is handled by parse_star)"
            )
        return cls(
            dim=dim_index(m.group("dim")),
            sign=POS if m.group("sign") == "+" else NEG,
            vc=int(m.group("vc") or "1"),
            cls=m.group("cls") or "",
        )


def parse_star(text: str) -> tuple[Channel, Channel]:
    """Parse the paper's star notation ``"X*"`` into both directions.

    ``D*`` represents both the positive and negative channels of dimension
    ``D`` (Definition 1).  VC and class qualifiers are applied to both.

    >>> parse_star("Y2*")
    (Channel(Y2+), Channel(Y2-))
    """
    m = _CHANNEL_RE.match(text.strip())
    if m is None or m.group("sign") != "*":
        raise ChannelParseError(f"not a star channel spec: {text!r}")
    base = Channel(
        dim=dim_index(m.group("dim")),
        sign=POS,
        vc=int(m.group("vc") or "1"),
        cls=m.group("cls") or "",
    )
    return base, base.opposite


def channels(spec: str | Iterable[str | Channel]) -> tuple[Channel, ...]:
    """Build a tuple of channels from a compact specification.

    Accepts a whitespace/comma separated string or an iterable mixing
    strings and :class:`Channel` objects.  Star entries expand to both
    directions, preserving order.

    >>> channels("X+ X- Y-")
    (Channel(X+), Channel(X-), Channel(Y-))
    >>> channels("Z2*")
    (Channel(Z2+), Channel(Z2-))
    """
    if isinstance(spec, str):
        items: Iterable[str | Channel] = spec.replace(",", " ").split()
    else:
        items = spec
    out: list[Channel] = []
    for item in items:
        if isinstance(item, Channel):
            out.append(item)
        elif "*" in item:
            out.extend(parse_star(item))
        else:
            out.append(Channel.parse(item))
    return tuple(out)


def complete_pairs(chans: Iterable[Channel]) -> dict[int, tuple[tuple[Channel, ...], tuple[Channel, ...]]]:
    """Map each dimension with a complete pair to its (positive, negative) channels.

    A dimension has a complete pair when at least one positive and one
    negative channel of that dimension are present, regardless of VC or
    class (Definition 3).

    >>> sorted(complete_pairs(channels("X+ X- Y+")))
    [0]
    """
    pos: dict[int, list[Channel]] = {}
    neg: dict[int, list[Channel]] = {}
    for ch in chans:
        (pos if ch.sign == POS else neg).setdefault(ch.dim, []).append(ch)
    return {
        d: (tuple(pos[d]), tuple(neg[d]))
        for d in sorted(set(pos) & set(neg))
    }


def dims_covered(chans: Iterable[Channel]) -> tuple[int, ...]:
    """The sorted set of dimension indices present in ``chans``."""
    return tuple(sorted({ch.dim for ch in chans}))
