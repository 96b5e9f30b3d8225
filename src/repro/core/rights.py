"""Access rights and access types for page-level protection.

Both protection models compared by the paper express a protection domain's
privileges on a page as a small set of rights bits (Figure 1 allots three:
read, write and execute).  :class:`Rights` is the shared currency between
the hardware structures (PLB, TLBs, page-group cache) and the operating
system's protection tables.
"""

from __future__ import annotations

import enum


class Rights(enum.IntFlag):
    """Page access rights, combinable as flags.

    ``Rights.NONE`` means the domain may not touch the page at all; this is
    distinct from the page being *unmapped* (no translation), a distinction
    the paper leans on when discussing PLB behaviour after unmap
    (Section 4.1.3).
    """

    NONE = 0
    READ = 1
    WRITE = 2
    EXECUTE = 4

    RW = READ | WRITE
    RX = READ | EXECUTE
    RWX = READ | WRITE | EXECUTE

    def allows(self, access: "AccessType") -> bool:
        """Return True when these rights permit ``access``.

        An int bit test: ``self & ...`` would build a new enum member on
        every reference, and ``allows`` runs on every one.
        """
        return self._value_ & access.bit != 0

    def without_write(self) -> "Rights":
        """Rights with the write permission stripped.

        Models the PA-RISC PID write-disable bit (Figure 2), which masks
        writes to an entire page-group regardless of the TLB rights field.
        """
        return self & ~Rights.WRITE

    def describe(self) -> str:
        """Render as the conventional ``rwx`` string (``---`` for NONE)."""
        return "".join(
            ch if self & bit else "-"
            for ch, bit in (("r", Rights.READ), ("w", Rights.WRITE), ("x", Rights.EXECUTE))
        )


class AccessType(enum.Enum):
    """The kind of memory reference being checked.

    Each member carries plain attributes, set once: ``required_right``
    (the single right the access needs), ``bit`` (that right as an int)
    and ``is_write``.
    """

    READ = "read"
    WRITE = "write"
    EXECUTE = "execute"

    def __init__(self, value: str) -> None:
        # Member names match the Rights flags they need.
        self.required_right = Rights[self._name_]
        self.bit = self.required_right._value_
        self.is_write = value == "write"


def parse_rights(text: str) -> Rights:
    """Parse a rights string such as ``"rw"`` or ``"r-x"`` into Rights.

    Dashes are ignored, so both compact (``"rw"``) and positional
    (``"rw-"``) notations are accepted.  Raises ValueError on anything
    else.
    """
    rights = Rights.NONE
    for ch in text:
        if ch == "-":
            continue
        try:
            rights |= {"r": Rights.READ, "w": Rights.WRITE, "x": Rights.EXECUTE}[ch]
        except KeyError:
            raise ValueError(f"unknown rights character {ch!r} in {text!r}") from None
    return rights
