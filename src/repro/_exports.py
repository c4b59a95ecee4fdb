"""Lazy package exports (PEP 562).

Each ``repro`` package names its public API in one ``{submodule: names}`` map
and imports a submodule only when one of its names is first read, so
``from repro.core import TPSEngine`` loads the in-process bindings' modules and
not the JXTA substrate, the simulator or asyncio.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Dict, List, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Tuple[str, ...]]
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` of ``package`` from its export map.

    ``exports`` maps a submodule name relative to ``package`` (``"engine"``)
    to the public names it defines.  A resolved name is cached on the
    package, so ``__getattr__`` runs once per name; ``__dir__`` lists the
    exports before they are first read.
    """
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = home.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{module}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(home))

    return list(home), __getattr__, __dir__
