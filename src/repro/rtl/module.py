"""Hierarchical design modules with scoped condition coverage."""

from __future__ import annotations

from repro.rtl.coverage import ConditionCoverage
from repro.rtl.signal import Reg


class Module:
    """Base class for design units.

    A module is constructed with its instance ``path`` (e.g.
    ``"rocket.dcache"``) and the shared :class:`ConditionCoverage` database.
    Subclasses declare conditions during ``__init__`` with :meth:`condition`
    and record observations with :meth:`cond`; registers created with
    :meth:`reg` are committed automatically by the clock domain.

    Hot paths that evaluate several conditions per call skip :meth:`cond`:
    they index each condition's prebound ``(false_bit, true_bit)`` pair in
    ``self._pairs`` with the condition's bool, OR the bits into a local int
    and retire it with one ``self.cov.record_mask``.
    """

    def __init__(self, path: str, cov: ConditionCoverage) -> None:
        self.path = path
        self.cov = cov
        #: Local condition name -> its ``(false_bit, true_bit)`` arm pair.
        self._pairs: dict[str, tuple[int, int]] = {}
        self._regs: list[Reg] = []
        self._children: list[Module] = []

    # -- elaboration -----------------------------------------------------------

    def condition(self, name: str) -> None:
        """Declare a condition local to this module (``<path>.<name>``)."""
        handle = self.cov.declare(f"{self.path}.{name}")
        self._pairs[name] = (self.cov.arm_bit(handle, False),
                             self.cov.arm_bit(handle, True))

    def conditions(self, *names: str) -> None:
        """Declare several conditions at once."""
        for name in names:
            self.condition(name)

    def reg(self, reset_value=0) -> Reg:
        """Create a clocked register owned by this module."""
        register = Reg(reset_value)
        self._regs.append(register)
        return register

    def child(self, module: "Module") -> "Module":
        """Register a sub-module so clocking and reset reach it."""
        self._children.append(module)
        return module

    # -- runtime -----------------------------------------------------------------

    def cond(self, name: str, value) -> bool:
        """Record one observation of a declared condition; returns bool(value)."""
        value = bool(value)
        # One frame: the pair's bit goes straight into the run bitmap, which
        # is what ConditionCoverage.record_mask would do.
        self.cov._run_bits |= self._pairs[name][value]
        return value

    def arm_bit(self, name: str, value) -> int:
        """Bitmap contribution of observing ``name`` with ``value``.

        For building memoized group masks: OR the bits of a correlated
        condition group once, then retire the whole group per evaluation
        with ``self.cov.record_mask(mask)``.
        """
        return self._pairs[name][1 if value else 0]

    def record_keyed_group(self, cache: dict, key, builder, arg,
                           cap: int = 65536) -> None:
        """Record a condition group whose outcome is a pure function of
        ``key``, memoizing its packed mask in ``cache``.

        On a miss, ``builder(arg)`` computes the group's arm mask (via
        :meth:`arm_bit`); on a hit the whole group costs one dict probe and
        one bitmap OR.  ``cache`` is bounded: at ``cap`` entries it is
        cleared and rebuilt from the (small) hot working set, matching the
        decoder's bounded-LRU policy rather than growing for the lifetime
        of a campaign.
        """
        mask = cache.get(key)
        if mask is None:
            if len(cache) >= cap:
                cache.clear()
            mask = builder(arg)
            cache[key] = mask
        self.cov.record_mask(mask)

    def commit(self) -> None:
        """Clock edge: latch every register in this module and its children."""
        for register in self._regs:
            register.commit()
        for module in self._children:
            module.commit()

    def reset(self) -> None:
        """Reset every register in this module and its children."""
        for register in self._regs:
            register.reset()
        for module in self._children:
            module.reset()

    def iter_modules(self):
        """Yield this module and all descendants depth-first."""
        yield self
        for module in self._children:
            yield from module.iter_modules()
