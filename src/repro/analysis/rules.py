"""The built-in rule pack: the repo's concurrency & determinism invariants.

Each rule machine-checks one convention that, before this module, lived only
in docstrings and ROADMAP prose (the PR 4 locking model, the simulated
network's determinism contract).  The authoritative statement of every
invariant -- with examples and the suppression policy -- is
``docs/CONCURRENCY.md``; the rule ids below are stable and referenced from
there.

* **RL001 no-raw-acquire** -- every lock use must be a ``with`` statement;
  bare ``acquire()``/``release()`` pairs leak the lock on any exception
  between them.
* **RL002 no-call-out-under-lock** -- inside a ``with <lock>:`` body, no
  calls to the known call-out surfaces (subscriber callbacks, error
  handlers, ``_decorate_message``, executor submission): user code run
  under an internal lock can re-enter and deadlock, or block every other
  thread on the lock while it runs.
* **RL003 snapshot-mutation** -- attributes documented as immutable dispatch
  snapshots (``_handlers``, the sharded bus's ``_topology``) may only be
  *rebound* to fresh tuples, never mutated in place: lock-free readers rely
  on a single atomic attribute load observing old-or-new, never half-built.
* **RL004 determinism** -- the simulated substrate (``repro.net``,
  ``repro.jxta``, ``repro.core``) must not read the wall clock or the
  process-global RNG: simclock time and injected seeded RNGs only, via the
  audited helpers of :mod:`repro.net.entropy`.
* **RL005 bare-except-swallow** -- no bare ``except:``, and no
  ``except Exception/BaseException:`` whose body silently swallows (only
  ``pass``/``continue``/constant ``return``): on dispatch paths this hides
  subscriber bugs the error-handler routing exists to surface.

Each rule is a :class:`Rule` subclass that carries its own scope
(``packages``) and tables (the RL003 snapshot attributes, the RL004 banned
names) as class constants; :data:`RULES` is the pack.  A new subsystem opts
in to RL004 by adding its package to ``Determinism.packages``.
"""

from __future__ import annotations

import ast
from typing import Any, Iterator, List, Optional, Tuple

#: Where the invariants are documented; every hint points here.
DOC = "docs/CONCURRENCY.md"

#: What ``Rule.check`` yields: the node to anchor at, the message, the hint.
Violation = Tuple[ast.AST, str, str]


class Rule:
    """One invariant: ``check`` yields a :data:`Violation` per breach.

    ``packages`` is the rule's scope: dotted package prefixes
    (``"repro.net"``) it runs over; empty means every linted file.
    """

    rule_id = ""
    title = ""
    rationale = ""
    packages: Tuple[str, ...] = ()

    @classmethod
    def applies_to(cls, module: str) -> bool:
        return not cls.packages or any(
            module == package or module.startswith(package + ".")
            for package in cls.packages
        )

    def check(self, tree: ast.Module, module: str) -> Iterator[Violation]:
        raise NotImplementedError


def _terminal_name(node: ast.AST) -> Optional[str]:
    """The rightmost identifier of a Name/Attribute chain, else None."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_lockish(node: ast.AST) -> bool:
    """Whether an expression names something that looks like a lock."""
    name = _terminal_name(node)
    return name is not None and "lock" in name.lower()


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted rendering of a Name/Attribute chain for messages."""
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    if isinstance(node, ast.Name):
        return node.id
    return "<expr>"


class NoRawAcquire(Rule):
    """RL001: locks are held via ``with``, never bare acquire()/release()."""

    rule_id = "RL001"
    title = "no-raw-acquire"
    rationale = (
        "a bare acquire()/release() pair leaks the lock on any exception "
        "between them; 'with lock:' cannot"
    )

    def check(self, tree: ast.Module, module: str) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("acquire", "release")
            ):
                receiver = _dotted(node.func.value)
                yield (
                    node,
                    f"raw {node.func.attr}() on {receiver}: hold locks with a "
                    f"'with' statement",
                    f"rewrite as 'with {receiver}:' ({DOC}#rl001)",
                )


class NoCallOutUnderLock(Rule):
    """RL002: no user-code call-outs while holding an internal lock."""

    rule_id = "RL002"
    title = "no-call-out-under-lock"
    rationale = (
        "user code run under an internal lock can re-enter and deadlock, or "
        "stall every thread contending for the lock"
    )
    #: Callee names that reach user code or hand work to other threads.
    #: ``handle``/``handle_error`` are the bound dispatch surfaces of
    #: Subscription rows; ``callback``/``listener``/``predicate``/
    #: ``exception_handler`` the raw application objects; ``dispatch`` the
    #: subscriber-manager fan-out; ``_decorate_message``/``_notify``/
    #: ``_emit`` the composite/breaker/membership hooks; ``submit`` executor
    #: submission.  ``call_soon``/``call_soon_threadsafe``/``create_task``/
    #: ``ensure_future`` are the asyncio hand-off surfaces: scheduling loop
    #: work while holding a lock couples the lock's critical section to the
    #: event loop's readiness -- the ASYNC binding's loop-confined state
    #: must never wait on thread locks, so the hand-off happens after
    #: release, like any other call-out.
    call_outs = frozenset(
        (
            "handle",
            "handle_error",
            "dispatch",
            "submit",
            "_decorate_message",
            "_notify",
            "_emit",
            "callback",
            "listener",
            "predicate",
            "exception_handler",
            "on_error",
            "call_soon",
            "call_soon_threadsafe",
            "create_task",
            "ensure_future",
        )
    )

    def check(self, tree: ast.Module, module: str) -> Iterator[Violation]:
        findings: List[Violation] = []

        def visit(node: ast.AST, lock_depth: int) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                # A function *defined* under a lock runs when called, not
                # here -- its body starts outside the critical section.
                lock_depth = 0
            elif isinstance(node, ast.With):
                held = sum(1 for item in node.items if _is_lockish(item.context_expr))
                if held:
                    for item in node.items:
                        visit(item, lock_depth)
                    for statement in node.body:
                        visit(statement, lock_depth + held)
                    return
            elif isinstance(node, ast.Call) and lock_depth > 0:
                name = _terminal_name(node.func)
                if name in self.call_outs:
                    findings.append(
                        (
                            node,
                            f"call to {_dotted(node.func)}() inside a "
                            f"'with <lock>:' body",
                            "snapshot under the lock, call out after "
                            f"releasing it ({DOC}#rl002)",
                        )
                    )
            for child in ast.iter_child_nodes(node):
                visit(child, lock_depth)

        visit(tree, 0)
        return iter(findings)


#: In-place mutators RL003 refuses on snapshot attributes.
_MUTATORS = frozenset(
    (
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
        "sort",
        "reverse",
        "update",
        "setdefault",
        "add",
        "discard",
    )
)


class SnapshotMutation(Rule):
    """RL003: snapshot attributes are rebound to tuples, never mutated."""

    rule_id = "RL003"
    title = "snapshot-mutation"
    rationale = (
        "lock-free readers load the snapshot attribute once; in-place "
        "mutation lets them observe a half-built value"
    )
    #: Attribute names documented as immutable dispatch snapshots.
    #: ``_handlers``: the TPSSubscriberManager dispatch snapshot.
    #: ``_topology``: ShardedLocalBus's (epoch number, Placement) pair, read
    #: lock-free once per batch; ``shards``/``placement``/``shard_ids`` are
    #: its public views and the ring's id tuple.
    snapshot_attrs = frozenset(
        ("_handlers", "_topology", "shards", "placement", "shard_ids")
    )

    def check(self, tree: ast.Module, module: str) -> Iterator[Violation]:
        def names_snapshot(node: ast.AST) -> bool:
            name = _terminal_name(node)
            return name in self.snapshot_attrs

        hint = f"swap in a freshly built tuple under the lock instead ({DOC}#rl003)"
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATORS
                and names_snapshot(node.func.value)
            ):
                yield (
                    node,
                    f"in-place {node.func.attr}() on snapshot attribute "
                    f"{_dotted(node.func.value)}",
                    hint,
                )
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Subscript) and names_snapshot(target.value):
                        yield (
                            node,
                            f"item assignment into snapshot attribute "
                            f"{_dotted(target.value)}",
                            hint,
                        )
                    elif (
                        isinstance(target, ast.Attribute)
                        and target.attr in self.snapshot_attrs
                        and _rebinds_to_list(node.value)
                    ):
                        yield (
                            node,
                            f"snapshot attribute {_dotted(target)} rebound to a "
                            f"list; snapshots must be immutable tuples",
                            hint,
                        )
            elif isinstance(node, ast.AugAssign) and (
                names_snapshot(node.target)
                or (
                    isinstance(node.target, ast.Subscript)
                    and names_snapshot(node.target.value)
                )
            ):
                yield (
                    node,
                    "augmented assignment on snapshot attribute "
                    f"{_dotted(node.target if not isinstance(node.target, ast.Subscript) else node.target.value)}",
                    hint,
                )
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript) and names_snapshot(target.value):
                        yield (
                            node,
                            f"item deletion from snapshot attribute "
                            f"{_dotted(target.value)}",
                            hint,
                        )


def _rebinds_to_list(value: ast.AST) -> bool:
    if isinstance(value, (ast.List, ast.ListComp)):
        return True
    if isinstance(value, ast.BinOp):
        # list(x) + [item] and friends still leave a mutable list bound.
        return _rebinds_to_list(value.left) or _rebinds_to_list(value.right)
    return (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id == "list"
    )


class Determinism(Rule):
    """RL004: simclock time and injected seeded RNGs only on sim paths."""

    rule_id = "RL004"
    title = "determinism"
    rationale = (
        "wall-clock reads and the process-global RNG make simulated runs "
        "unreproducible; use simclock and repro.net.entropy"
    )
    # The simulated substrate and the engine core; bench/ and apps/ measure
    # and demo against the real world and are out of scope by construction.
    # ``repro.core`` includes the asyncio binding (``repro.core.async_engine``):
    # it runs on real loops, so it must not smuggle in wall-clock/RNG imports
    # either -- its one clock read goes through the owning loop's
    # ``loop.time()``.  ``repro.storage`` is the durable history store: file
    # I/O is in scope too -- no wall-clock record timestamps; anything
    # time-like must come from an injected clock so log replay stays
    # deterministic.  ``repro.testing`` checks that simulated runs replay, so
    # it must not read a wall clock or the global RNG itself.
    packages = ("repro.net", "repro.jxta", "repro.core", "repro.storage", "repro.testing")
    #: Modules whose import alone is a violation in scoped packages.
    banned_modules = frozenset(("time", "random", "datetime"))
    #: module -> attributes flagged when referenced (``uuid`` stays
    #: importable for its deterministic constructors; only the
    #: entropy-reading calls are banned).
    banned_attrs = {
        "uuid": frozenset(("uuid1", "uuid4", "getnode")),
        "datetime": frozenset(("now", "utcnow", "today")),
    }

    def check(self, tree: ast.Module, module: str) -> Iterator[Violation]:
        hint = (
            "inject a seeded RNG / virtual clock, or route through the "
            f"audited helpers in repro/net/entropy.py ({DOC}#rl004)"
        )
        findings: List[Violation] = []

        def flag(node: ast.AST, message: str) -> None:
            findings.append((node, message, hint))

        def visit(node: ast.AST) -> None:
            # Typing-only code never executes: skip ``if TYPE_CHECKING:``
            # bodies and every annotation position, so ``random.Random``
            # type hints do not count as entropy use.
            if isinstance(node, ast.If) and _terminal_name(node.test) == "TYPE_CHECKING":
                for child in node.orelse:
                    visit(child)
                return
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in node.decorator_list:
                    visit(decorator)
                defaults = list(node.args.defaults) + [
                    default for default in node.args.kw_defaults if default is not None
                ]
                for default in defaults:
                    visit(default)
                for statement in node.body:
                    visit(statement)
                return
            if isinstance(node, ast.AnnAssign):
                visit(node.target)
                if node.value is not None:
                    visit(node.value)
                return
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] in self.banned_modules:
                        flag(
                            node,
                            f"import of nondeterministic module {alias.name!r} "
                            f"in {module}",
                        )
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if node.level == 0 and root in self.banned_modules:
                    flag(
                        node,
                        f"import from nondeterministic module {node.module!r} "
                        f"in {module}",
                    )
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                base = node.value.id
                if base in self.banned_modules and base not in self.banned_attrs:
                    flag(node, f"use of {base}.{node.attr} on a deterministic path")
                elif node.attr in self.banned_attrs.get(base, ()):
                    flag(node, f"use of {base}.{node.attr} on a deterministic path")
            for child in ast.iter_child_nodes(node):
                visit(child)

        visit(tree)
        return iter(findings)


#: Exception names RL005 treats as "catches everything".
_BROAD = frozenset(("Exception", "BaseException"))


class BareExceptSwallow(Rule):
    """RL005: no bare excepts; broad catches must not silently swallow."""

    rule_id = "RL005"
    title = "bare-except-swallow"
    rationale = (
        "a silent broad catch on a dispatch path hides subscriber bugs the "
        "error-handler routing exists to surface"
    )

    def check(self, tree: ast.Module, module: str) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield (
                    node,
                    "bare 'except:' clause",
                    "name the exception type; route dispatch errors to "
                    f"the paired handler ({DOC}#rl005)",
                )
            elif _catches_broad(node.type) and _swallows(node.body):
                yield (
                    node,
                    f"broad 'except {_dotted(node.type)}:' silently swallows "
                    "the error",
                    "count it, log it, or route it to the error handler "
                    f"({DOC}#rl005)",
                )


def _catches_broad(annotation: ast.AST) -> bool:
    if isinstance(annotation, ast.Tuple):
        return any(_catches_broad(element) for element in annotation.elts)
    return _terminal_name(annotation) in _BROAD


def _swallows(body: Any) -> bool:
    """Whether a handler body only passes/continues/returns a constant."""
    for statement in body:
        if isinstance(statement, (ast.Pass, ast.Continue)):
            continue
        if isinstance(statement, ast.Return) and (
            statement.value is None or isinstance(statement.value, ast.Constant)
        ):
            continue
        return False
    return True


#: The rule pack, in rule-id order: ``python -m repro lint`` runs these.
RULES = (NoRawAcquire, NoCallOutUnderLock, SnapshotMutation, Determinism, BareExceptSwallow)


__all__ = [
    "BareExceptSwallow",
    "Determinism",
    "NoCallOutUnderLock",
    "NoRawAcquire",
    "RULES",
    "Rule",
    "SnapshotMutation",
    "Violation",
]
