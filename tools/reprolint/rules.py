"""AST rules encoding the repository's reproducibility contracts.

One :class:`ContractVisitor` walks a module once and emits findings for every
enabled rule.  The rules are deliberately *heuristic* — they track import
aliases and lexical scope, not types — so each carries a line-level escape
hatch (``# reprolint: ok(<RULE>) justification``) for the provably-safe cases.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from tools.reprolint.config import Config


@dataclass(frozen=True)
class Rule:
    code: str
    summary: str


RULES: Tuple[Rule, ...] = (
    Rule("DET001", "global-state RNG call; use an explicitly seeded generator"),
    Rule("DET002", "builtin hash() outside __hash__; use zlib.crc32/hashlib"),
    Rule("DET003", "wall-clock read in library code; results must be time-independent"),
    Rule("DET004", "RNG seed reads module state; derive seeds from an explicit argument"),
    Rule("PKL001", "unpicklable callable reaches the executor boundary"),
    Rule("FLT001", "exact float ==/!= in solver-tolerance code; compare with epsilon"),
    Rule("SET001", "set iteration order flows into an ordered output; sort first"),
    Rule("IMP001", "module-level import of a SciPy subpackage; import it where it runs"),
)

RULE_CODES: Tuple[str, ...] = tuple(rule.code for rule in RULES)


@dataclass(frozen=True)
class RawFinding:
    """A rule violation before pragma filtering (engine adds the path)."""

    code: str
    line: int
    col: int
    message: str


# -- DET001: global-state randomness -------------------------------------------

#: Module-level functions of ``random`` that touch the hidden global Random().
_RANDOM_GLOBAL_FUNCS = frozenset(
    {
        "random", "randint", "randrange", "uniform", "choice", "choices",
        "shuffle", "sample", "seed", "getrandbits", "getstate", "setstate",
        "gauss", "normalvariate", "lognormvariate", "expovariate",
        "vonmisesvariate", "gammavariate", "betavariate", "paretovariate",
        "weibullvariate", "triangular", "binomialvariate", "randbytes",
    }
)

#: ``numpy.random`` module functions backed by the hidden global RandomState.
_NP_RANDOM_GLOBAL_FUNCS = frozenset(
    {
        "rand", "randn", "randint", "random", "random_sample", "ranf",
        "sample", "seed", "choice", "shuffle", "permutation", "bytes",
        "get_state", "set_state", "normal", "uniform", "standard_normal",
        "poisson", "beta", "binomial", "chisquare", "dirichlet",
        "exponential", "f", "gamma", "geometric", "gumbel", "hypergeometric",
        "laplace", "logistic", "lognormal", "logseries", "multinomial",
        "multivariate_normal", "negative_binomial", "noncentral_chisquare",
        "noncentral_f", "pareto", "power", "rayleigh", "standard_cauchy",
        "standard_exponential", "standard_gamma", "standard_t", "triangular",
        "vonmises", "wald", "weibull", "zipf", "random_integers",
    }
)

#: Seeded-generator constructors that are *only* deterministic with a seed.
_SEEDED_CONSTRUCTORS = frozenset({"Random", "default_rng", "RandomState", "SeedSequence"})

# -- DET004: seed plumbing -------------------------------------------------------

_BUILTIN_NAMES = frozenset(dir(builtins))


def _bound_names(node: ast.AST) -> Set[str]:
    """Every name bound anywhere inside ``node`` (Python scoping is
    whole-function, so a later assignment still makes the name local).

    Includes bindings from nested scopes — an over-approximation that only
    ever suppresses findings, never invents them.  Names declared ``global``
    or ``nonlocal`` are subtracted: they resolve to an *enclosing* scope,
    whose own binding set (if any) is separately on the stack.
    """
    bound: Set[str] = set()
    declared: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, (ast.Store, ast.Del)):
            bound.add(sub.id)
        elif isinstance(sub, ast.arg):
            bound.add(sub.arg)
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(sub.name)
        elif isinstance(sub, ast.ExceptHandler) and sub.name:
            bound.add(sub.name)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            for alias in sub.names:
                bound.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(sub, (ast.Global, ast.Nonlocal)):
            declared.update(sub.names)
    return bound - declared

# -- DET003: wall-clock reads ---------------------------------------------------

_TIME_WALLCLOCK_FUNCS = frozenset(
    {"time", "time_ns", "localtime", "gmtime", "ctime", "asctime", "strftime"}
)
_DATETIME_CLASS_WALLCLOCK = frozenset({"now", "utcnow", "today"})

# -- IMP001: SciPy subpackages imported with the module -------------------------


def _scipy_subpackage(module: str) -> bool:
    """Whether importing ``module`` runs a SciPy subpackage, not just ``scipy``.

    Every subpackage counts: the light-looking ones (``interpolate``,
    ``signal``, ``integrate``, ``spatial``, ``ndimage``, ``fft``) import
    ``linalg``, ``sparse`` or ``special`` as they load.  Dunder attributes of
    the top-level package (``from scipy import __version__``) do not.
    """
    top, _, sub = module.partition(".")
    return top == "scipy" and bool(sub) and not sub.startswith("__")


# -- SET001: order-sensitive consumers of sets ---------------------------------

#: Callables for which argument order is observable in the output.
_ORDERED_CONSUMERS = frozenset({"list", "tuple", "enumerate", "iter", "next", "reversed"})
#: numpy constructors that freeze iteration order into an array.
_NP_ORDERED_CONSUMERS = frozenset({"array", "asarray", "fromiter", "stack", "concatenate"})


def _call_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


class ContractVisitor(ast.NodeVisitor):
    """Single-pass visitor emitting findings for all enabled rules."""

    def __init__(
        self, config: Config, *, float_rule_active: bool, import_rule_active: bool = False
    ) -> None:
        self.config = config
        self.float_rule_active = float_rule_active
        self.import_rule_active = import_rule_active
        # Depth of ``if TYPE_CHECKING:`` blocks (their imports never run).
        self._type_checking = 0
        self.findings: List[RawFinding] = []

        # Import alias tracking (module-level and function-level lumped
        # together: shadowing across scopes is rare enough not to matter).
        self._random_aliases: Set[str] = set()
        self._numpy_aliases: Set[str] = set()
        self._numpy_random_aliases: Set[str] = set()
        self._time_aliases: Set[str] = set()
        self._datetime_module_aliases: Set[str] = set()
        self._datetime_class_aliases: Set[str] = set()
        # Name -> (module, func) for ``from random import randint`` style.
        self._from_imports: Dict[str, Tuple[str, str]] = {}

        # Lexical scope: stack of enclosing function names, and per-scope
        # names of locally-defined functions (for PKL001).
        self._function_stack: List[str] = []
        self._local_defs: List[Set[str]] = []
        # DET004: stack of bound-name sets, one per enclosing function /
        # lambda / comprehension scope, plus every imported top-level name.
        self._bindings: List[Set[str]] = []
        self._import_names: Set[str] = set()

    # -- helpers ----------------------------------------------------------------

    def _emit(self, code: str, node: ast.AST, message: str) -> None:
        if self.config.rule_enabled(code):
            self.findings.append(
                RawFinding(code, getattr(node, "lineno", 1), getattr(node, "col_offset", 0), message)
            )

    def _in_dunder_hash(self) -> bool:
        return "__hash__" in self._function_stack

    def _is_local_def(self, name: str) -> bool:
        return any(name in scope for scope in self._local_defs)

    # -- imports ----------------------------------------------------------------

    def _check_module_level_import(self, node: ast.AST, modules: Sequence[str]) -> None:
        """IMP001: a SciPy subpackage imported when the module is."""
        if not self.import_rule_active or self._function_stack or self._type_checking:
            return
        for module in modules:
            if _scipy_subpackage(module):
                self._emit(
                    "IMP001",
                    node,
                    f"{module} is imported with the module and every process pays for it; "
                    "import it inside the function that runs it",
                )
                return

    def visit_If(self, node: ast.If) -> None:
        test = node.test
        guarded = (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
            isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
        )
        if not guarded:
            self.generic_visit(node)
            return
        self.visit(test)
        self._type_checking += 1
        for child in node.body:
            self.visit(child)
        self._type_checking -= 1
        for child in node.orelse:
            self.visit(child)

    def visit_Import(self, node: ast.Import) -> None:
        self._check_module_level_import(node, [alias.name for alias in node.names])
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            self._import_names.add(bound)
            if alias.name == "random":
                self._random_aliases.add(bound)
            elif alias.name in ("numpy", "numpy.random"):
                # ``import numpy.random as npr`` binds the submodule; plain
                # ``import numpy.random`` binds ``numpy``.
                if alias.name == "numpy.random" and alias.asname:
                    self._numpy_random_aliases.add(alias.asname)
                else:
                    self._numpy_aliases.add(bound)
            elif alias.name == "time":
                self._time_aliases.add(bound)
            elif alias.name == "datetime":
                self._datetime_module_aliases.add(bound)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if not node.level:
            self._check_module_level_import(
                node, [module] + [f"{module}.{alias.name}" for alias in node.names]
            )
        for alias in node.names:
            bound = alias.asname or alias.name
            self._import_names.add(bound)
            if module == "numpy" and alias.name == "random":
                self._numpy_random_aliases.add(bound)
            elif module in ("random", "numpy.random", "time", "datetime"):
                self._from_imports[bound] = (module, alias.name)
                if module == "datetime" and alias.name == "datetime":
                    self._datetime_class_aliases.add(bound)
        self.generic_visit(node)

    # -- scope tracking ----------------------------------------------------------

    def _visit_function(self, node) -> None:
        if self._function_stack and self._local_defs:
            self._local_defs[-1].add(node.name)
        self._function_stack.append(node.name)
        self._local_defs.append(set())
        self._bindings.append(_bound_names(node))
        self.generic_visit(node)
        self._function_stack.pop()
        self._local_defs.pop()
        self._bindings.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._bindings.append(_bound_names(node))
        self.generic_visit(node)
        self._bindings.pop()

    def _is_bound(self, name: str) -> bool:
        return any(name in scope for scope in self._bindings)

    # -- calls: DET001 / DET002 / DET003 / PKL001 / SET001 ----------------------

    def visit_Call(self, node: ast.Call) -> None:
        self._check_rng_call(node)
        self._check_seed_plumbing(node)
        self._check_hash_call(node)
        self._check_wallclock_call(node)
        self._check_executor_call(node)
        self._check_descriptor_call(node)
        self._check_ordered_consumer_call(node)
        self.generic_visit(node)

    def _check_rng_call(self, node: ast.Call) -> None:
        func = node.func
        # from random import randint; randint(...)
        if isinstance(func, ast.Name):
            origin = self._from_imports.get(func.id)
            if origin is not None:
                module, name = origin
                if module == "random" and name in _RANDOM_GLOBAL_FUNCS:
                    self._emit("DET001", node, f"random.{name}() uses the hidden global RNG")
                elif module == "numpy.random" and name in _NP_RANDOM_GLOBAL_FUNCS:
                    self._emit("DET001", node, f"np.random.{name}() uses the hidden global RNG")
                elif name in _SEEDED_CONSTRUCTORS and not node.args and not node.keywords:
                    self._emit("DET001", node, f"{name}() without a seed is nondeterministic")
            return
        if not isinstance(func, ast.Attribute):
            return
        base = func.value
        # random.<func>() / random.Random()
        if isinstance(base, ast.Name) and base.id in self._random_aliases:
            if func.attr in _RANDOM_GLOBAL_FUNCS:
                self._emit("DET001", node, f"random.{func.attr}() uses the hidden global RNG")
            elif func.attr == "Random" and not node.args and not node.keywords:
                self._emit("DET001", node, "random.Random() without a seed is nondeterministic")
            return
        # npr.<func>() where npr aliases numpy.random
        if isinstance(base, ast.Name) and base.id in self._numpy_random_aliases:
            self._check_np_random_attr(node, func.attr)
            return
        # np.random.<func>()
        if (
            isinstance(base, ast.Attribute)
            and base.attr == "random"
            and isinstance(base.value, ast.Name)
            and base.value.id in self._numpy_aliases
        ):
            self._check_np_random_attr(node, func.attr)

    def _check_np_random_attr(self, node: ast.Call, attr: str) -> None:
        if attr in _NP_RANDOM_GLOBAL_FUNCS:
            self._emit("DET001", node, f"np.random.{attr}() uses the hidden global RNG")
        elif attr in ("default_rng", "RandomState") and not node.args and not node.keywords:
            self._emit("DET001", node, f"np.random.{attr}() without a seed is nondeterministic")

    # -- DET004 ------------------------------------------------------------------

    def _seeded_constructor_name(self, node: ast.Call) -> Optional[str]:
        """The ``_SEEDED_CONSTRUCTORS`` member this call invokes, if any."""
        func = node.func
        if isinstance(func, ast.Name):
            origin = self._from_imports.get(func.id)
            if origin is not None and origin[1] in _SEEDED_CONSTRUCTORS:
                return origin[1]
            return None
        if not isinstance(func, ast.Attribute) or func.attr not in _SEEDED_CONSTRUCTORS:
            return None
        base = func.value
        if isinstance(base, ast.Name) and (
            base.id in self._random_aliases or base.id in self._numpy_random_aliases
        ):
            return func.attr
        if (
            isinstance(base, ast.Attribute)
            and base.attr == "random"
            and isinstance(base.value, ast.Name)
            and base.value.id in self._numpy_aliases
        ):
            return func.attr
        return None

    def _check_seed_plumbing(self, node: ast.Call) -> None:
        """DET004: seeded-constructor seeds must derive from explicit arguments."""
        name = self._seeded_constructor_name(node)
        if name is None:
            return
        seed_exprs = list(node.args) + [kw.value for kw in node.keywords]
        for expr in seed_exprs:  # unseeded calls are DET001's finding
            offenders = self._module_state_names(expr)
            if offenders:
                self._emit(
                    "DET004",
                    node,
                    f"{name}() seed reads module state {offenders[0]!r}; "
                    "derive seeds from an explicit argument",
                )
                return

    def _module_state_names(self, expr: ast.expr) -> List[str]:
        """Free names in ``expr`` that can only resolve to module globals.

        A loaded name is module state unless it is bound in an enclosing
        function/lambda/comprehension scope, imported, a builtin, or part of
        a callee (``zlib.crc32(...)`` names the *function*, not the seed).
        """
        callee_nodes: Set[int] = set()
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Call):
                callee_nodes.update(id(part) for part in ast.walk(sub.func))
        names: List[str] = []
        for sub in ast.walk(expr):
            if id(sub) in callee_nodes or not isinstance(sub, ast.Name):
                continue
            if not isinstance(sub.ctx, ast.Load):
                continue
            name = sub.id
            if (
                name in _BUILTIN_NAMES
                or name in self._import_names
                or self._is_bound(name)
            ):
                continue
            if name not in names:
                names.append(name)
        return names

    def _check_hash_call(self, node: ast.Call) -> None:
        if _call_name(node) == "hash" and not self._in_dunder_hash():
            self._emit(
                "DET002",
                node,
                "builtin hash() is randomised per process (PYTHONHASHSEED); "
                "use zlib.crc32/hashlib over a canonical encoding",
            )

    def _check_wallclock_call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            origin = self._from_imports.get(func.id)
            if origin is not None:
                module, name = origin
                if module == "time" and name in _TIME_WALLCLOCK_FUNCS and not node.args:
                    self._emit("DET003", node, f"time.{name}() reads the wall clock")
            return
        if not isinstance(func, ast.Attribute):
            return
        base = func.value
        # time.time() and friends (argument-less reads only: strftime(fmt, t)
        # formats an explicit instant and is pure).
        if (
            isinstance(base, ast.Name)
            and base.id in self._time_aliases
            and func.attr in _TIME_WALLCLOCK_FUNCS
            and not node.args
        ):
            self._emit("DET003", node, f"time.{func.attr}() reads the wall clock")
            return
        if func.attr not in _DATETIME_CLASS_WALLCLOCK:
            return
        # datetime.now() via the imported class, datetime.datetime.now(),
        # datetime.date.today() via the module.
        if isinstance(base, ast.Name) and base.id in self._datetime_class_aliases:
            self._emit("DET003", node, f"datetime.{func.attr}() reads the wall clock")
        elif (
            isinstance(base, ast.Attribute)
            and base.attr in ("datetime", "date")
            and isinstance(base.value, ast.Name)
            and base.value.id in self._datetime_module_aliases
        ):
            self._emit("DET003", node, f"{base.attr}.{func.attr}() reads the wall clock")
        else:
            origin = self._from_imports.get(base.id) if isinstance(base, ast.Name) else None
            if origin == ("datetime", "date") and func.attr == "today":
                self._emit("DET003", node, "date.today() reads the wall clock")

    def _check_executor_call(self, node: ast.Call) -> None:
        """PKL001: lambdas / local defs handed to ``submit``/``map``."""
        func = node.func
        is_boundary = isinstance(func, ast.Attribute) and func.attr in ("submit", "map")
        if not is_boundary:
            return
        for arg in node.args:
            self._flag_unpicklable(arg, context="submitted to an executor")

    def _check_descriptor_call(self, node: ast.Call) -> None:
        """PKL001: lambdas / local defs stored in work descriptors."""
        name = _call_name(node)
        if name not in self.config.descriptor_classes:
            return
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            self._flag_unpicklable(arg, context=f"stored in work descriptor {name}")

    def _flag_unpicklable(self, arg: ast.expr, *, context: str) -> None:
        if isinstance(arg, ast.Lambda):
            self._emit("PKL001", arg, f"lambda {context}: lambdas do not pickle")
        elif isinstance(arg, ast.Name) and self._is_local_def(arg.id):
            self._emit(
                "PKL001",
                arg,
                f"locally-defined function {arg.id!r} {context}: "
                "nested functions do not pickle",
            )

    # -- FLT001 ------------------------------------------------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        if self.float_rule_active and self.config.rule_enabled("FLT001"):
            operands = [node.left] + list(node.comparators)
            for op, left, right in zip(node.ops, operands[:-1], operands[1:]):
                if isinstance(op, (ast.Eq, ast.NotEq)) and (
                    self._is_float_literal(left) or self._is_float_literal(right)
                ):
                    self._emit(
                        "FLT001",
                        node,
                        "exact float equality; LP results are only defined to "
                        "solver tolerance — compare with an epsilon",
                    )
                    break
        self.generic_visit(node)

    @staticmethod
    def _is_float_literal(node: ast.expr) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return True
        if (
            isinstance(node, ast.UnaryOp)
            and isinstance(node.op, (ast.USub, ast.UAdd))
            and isinstance(node.operand, ast.Constant)
            and isinstance(node.operand.value, float)
        ):
            return True
        if isinstance(node, ast.Call) and _call_name(node) == "float":
            return True
        return False

    # -- SET001 ------------------------------------------------------------------

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and _call_name(node) in ("set", "frozenset"):
            return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Sub, ast.BitOr, ast.BitAnd, ast.BitXor)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    def _flag_set_iteration(self, iterable: ast.expr, context: str) -> None:
        if self._is_set_expr(iterable):
            self._emit(
                "SET001",
                iterable,
                f"set iteration order is process-dependent but {context}; "
                "wrap in sorted(...)",
            )

    def visit_For(self, node: ast.For) -> None:
        self._flag_set_iteration(node.iter, "the loop body sees it in order")
        self.generic_visit(node)

    @staticmethod
    def _comp_bindings(node) -> Set[str]:
        bound: Set[str] = set()
        for comp in node.generators:
            for sub in ast.walk(comp.target):
                if isinstance(sub, ast.Name):
                    bound.add(sub.id)
        return bound

    def _visit_ordered_comp(self, node, kind: str) -> None:
        for comp in node.generators:
            self._flag_set_iteration(comp.iter, f"it feeds a {kind}")
        self._bindings.append(self._comp_bindings(node))
        self.generic_visit(node)
        self._bindings.pop()

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_ordered_comp(node, "list")

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_ordered_comp(node, "dict (insertion-ordered)")

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._bindings.append(self._comp_bindings(node))
        self.generic_visit(node)
        self._bindings.pop()

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        # Only order-insensitive reducers typically consume generators, and
        # flagging every ``for x in set_expr`` generator would double-report
        # the ordered-consumer check below; generators are checked at their
        # consumer instead.
        self._bindings.append(self._comp_bindings(node))
        self.generic_visit(node)
        self._bindings.pop()

    def _check_ordered_consumer_call(self, node: ast.Call) -> None:
        consumer: Optional[str] = None
        func = node.func
        if isinstance(func, ast.Name) and func.id in _ORDERED_CONSUMERS:
            consumer = func.id
        elif isinstance(func, ast.Attribute):
            if func.attr == "join" and isinstance(func.value, (ast.Constant, ast.Name)):
                consumer = "str.join"
            elif (
                func.attr in _NP_ORDERED_CONSUMERS
                and isinstance(func.value, ast.Name)
                and func.value.id in self._numpy_aliases
            ):
                consumer = f"np.{func.attr}"
        if consumer is None or not node.args:
            return
        first = node.args[0]
        if self._is_set_expr(first):
            self._flag_set_iteration(first, f"it is materialised by {consumer}(...)")
        elif isinstance(first, ast.GeneratorExp):
            for comp in first.generators:
                self._flag_set_iteration(comp.iter, f"it is materialised by {consumer}(...)")


def check_module(
    tree: ast.Module,
    config: Config,
    *,
    float_rule_active: bool,
    import_rule_active: bool = False,
) -> List[RawFinding]:
    """All raw findings for one parsed module, in source order."""
    visitor = ContractVisitor(
        config, float_rule_active=float_rule_active, import_rule_active=import_rule_active
    )
    visitor.visit(tree)
    return sorted(visitor.findings, key=lambda f: (f.line, f.col, f.code))


def rule_summaries() -> Sequence[Tuple[str, str]]:
    return [(rule.code, rule.summary) for rule in RULES]
