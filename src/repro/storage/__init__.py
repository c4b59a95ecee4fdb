"""Durable storage for the TPS reproduction.

One flavour so far: :class:`~repro.storage.log.LogHistory`, the append-only
history store behind ``history="log"`` on every binding (see
:mod:`repro.core.history` for the store contract and the bounded in-memory
default).  The package is in the lint's determinism scope (RL004,
``repro.analysis.rules.Determinism.packages``): like the core packages it
must not read wall clocks or ambient randomness -- records carry offsets,
never timestamps.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {"log": ("LogHistory",)})
