"""Ground a knowledge base + design request into SAT.

Every named constraint group is *guarded* by a selector variable
(``guard::<name>``) and activated through solver assumptions. Feasibility
checks assume all guards; when the answer is UNSAT the solver's assumption
core names exactly which requirement groups clashed — the raw material for
§6-style explanations. Once a request is known feasible, the guards are
asserted hard and the optimizer runs on the frozen formula.

Variable grounding (see :mod:`repro.kb.dsl` for the vocabulary):

- ``sys::S`` selection booleans, with ``S.requires`` guarded per system;
- ``hw::M`` booleans tied to bounded count IntVars (``M`` units deployed);
- ``prop::...`` closed-world definitions: a property holds iff some
  deployed system or hardware provides it (or the request grants it);
- ``ctx::``/``wl::``/``feat::`` closed-world context grounding;
- resource constraints as linear demand <= capacity over the counts;
- common-sense rules (exclusive categories, "servers need NICs", ...)
  generated and tagged so benchmarks can ablate them (§3.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import QueryError, UnknownEntityError
from repro.kb.dsl import namespace_of
from repro.kb.registry import KnowledgeBase
from repro.kb.resources import ResourceLedger, is_additive
from repro.core.design import (
    COST_OBJECTIVES,
    DesignRequest,
    DesignSolution,
)
from repro.logic.ast import And, AtMost, Formula, Implies, Not, Or, Var
from repro.logic.pseudo_boolean import PBTerm
from repro.logic.simplify import free_vars
from repro.logic.tseitin import CnfBuilder
from repro.sat.solver import Solver
from repro.smt.encoder import IntEncoder
from repro.smt.terms import IntVar, LinExpr


@dataclass
class CompiledDesign:
    """A grounded design problem, ready to solve/diagnose/optimize."""

    kb: KnowledgeBase
    request: DesignRequest
    solver: Solver
    builder: CnfBuilder
    encoder: IntEncoder
    candidates: list[str]
    hw_models: list[str]
    selectors: dict[str, int] = field(default_factory=dict)
    descriptions: dict[str, str] = field(default_factory=dict)
    sys_lits: dict[str, int] = field(default_factory=dict)
    feat_lits: dict[tuple[str, str], int] = field(default_factory=dict)
    hw_bools: dict[str, int] = field(default_factory=dict)
    hw_counts: dict[str, IntVar] = field(default_factory=dict)
    soft_rule_terms: list[PBTerm] = field(default_factory=list)
    soft_rule_names: dict[int, str] = field(default_factory=dict)
    #: Every grounded constraint group, keyed by ``(canonical name,
    #: content)``: the same group is never encoded twice, and a what-if
    #: variant (same name, different budget/bound/context value) gets its
    #: own suffixed guard variable. Sessions re-ground requests against
    #: this registry to reuse clauses across queries.
    request_groups: dict[tuple[str, object], tuple[str, int]] = field(
        default_factory=dict
    )
    #: Canonical group name -> the KB entity keys its clauses were
    #: derived from (see :data:`repro.kb.registry.EntityKey`). The
    #: session's delta-rebase path consults this to decide which groups
    #: a KB change dirties; groups with no KB footprint (budgets,
    #: context values) are absent.
    group_entities: dict[str, frozenset] = field(default_factory=dict)
    _guard_variants: dict[str, int] = field(default_factory=dict)
    _guards_asserted: bool = False

    # -- solving ----------------------------------------------------------------

    def assumptions(self, exclude: set[str] | None = None) -> list[int]:
        """Selector literals for all guards (minus *exclude*)."""
        exclude = exclude or set()
        return [lit for name, lit in self.selectors.items() if name not in exclude]

    def solve(self, extra_assumptions: list[int] | None = None) -> bool:
        """Feasibility under all guards (non-destructive)."""
        return self.solver.solve(self.assumptions() + (extra_assumptions or []))

    def core_names(self) -> list[str]:
        """Guard names in the last UNSAT core."""
        by_lit = {lit: name for name, lit in self.selectors.items()}
        return [by_lit[lit] for lit in self.solver.unsat_core() if lit in by_lit]

    def assert_guards(self) -> None:
        """Make every guard permanent (do this once feasibility is known)."""
        if self._guards_asserted:
            return
        for lit in self.selectors.values():
            self.solver.add_clause([lit])
        self._guards_asserted = True

    # -- objectives -----------------------------------------------------------------

    def objective_terms(self, name: str) -> list[PBTerm]:
        """Minimization terms for an objective.

        Cost objectives (``capex_usd``, ``power_w``) charge per deployed
        hardware unit through the count variables' binary digits; ordering
        dimensions charge each deployed system its badness rank under the
        request's context.
        """
        if name in COST_OBJECTIVES:
            terms: list[PBTerm] = []
            for model in self.hw_models:
                hardware = self.kb.hardware_model(model)
                unit = hardware.cost_usd if name == "capex_usd" else hardware.power_w
                if unit <= 0:
                    continue
                bits = self.encoder.bits_for(self.hw_counts[model])
                for j, bit in enumerate(bits):
                    terms.append(PBTerm(unit * (1 << j), bit))
            return terms
        if name not in self.kb.dimensions():
            raise QueryError(
                f"unknown optimization objective {name!r}: not a cost "
                f"objective ({COST_OBJECTIVES}) nor an ordering dimension "
                f"({sorted(self.kb.dimensions())})"
            )
        graph = self.kb.ordering_graph(name, self._static_context())
        ranks = graph.ranks()
        terms = []
        for system in self.candidates:
            rank = ranks.get(system, 0)
            if rank > 0:
                terms.append(PBTerm(rank, self.sys_lits[system]))
        return terms

    #: Optimization granularity for cost objectives: prices are charged in
    #: these units during search (extraction still reports exact totals).
    #: Coarse units keep the bisection's probes few and its weights small.
    COST_QUANTUM = {"capex_usd": 500, "power_w": 10}

    def cost_expr(self, name: str) -> LinExpr:
        """A cost objective as a linear expression over hardware counts.

        Used by the optimizer: large-weight objectives are minimized by
        bound bisection with native linear bounds rather than by a
        pseudo-Boolean totalizer (which degrades on dollar-scale weights).
        Unit costs are quantized by :data:`COST_QUANTUM` (rounded up), so
        the optimum is exact at that granularity.
        """
        if name not in COST_OBJECTIVES:
            raise QueryError(f"{name!r} is not a cost objective")
        quantum = self.COST_QUANTUM[name]
        expr = LinExpr()
        for model in self.hw_models:
            hardware = self.kb.hardware_model(model)
            unit = hardware.cost_usd if name == "capex_usd" else hardware.power_w
            if unit:
                expr = expr + -(-unit // quantum) * self.hw_counts[model]
        return expr

    def _static_context(self) -> dict[str, bool]:
        """Grounding context for ordering conditions (see
        :func:`static_context_of`)."""
        return static_context_of(self.request)

    # -- model extraction ----------------------------------------------------------------

    def extract_solution(self, model: dict[int, bool]) -> DesignSolution:
        """Read a deployed architecture out of a SAT model."""
        systems = [s for s, lit in self.sys_lits.items() if model.get(lit, False)]
        features: dict[str, list[str]] = {}
        for (system, flag), lit in self.feat_lits.items():
            if model.get(lit, False):
                features.setdefault(system, []).append(flag)
        hardware = {
            m: self.encoder.value_of(self.hw_counts[m], model)
            for m in self.hw_models
        }
        properties = sorted(
            name[len("prop::"):]
            for name in self.builder.known_names()
            if name.startswith("prop::")
            and model.get(self.builder.var_for(name), False)
        )
        ledger = self._ledger(systems, hardware)
        cost = sum(
            self.kb.hardware_model(m).cost_usd * n for m, n in hardware.items()
        )
        power = sum(
            self.kb.hardware_model(m).power_w * n for m, n in hardware.items()
        )
        objective_costs = {}
        for objective in self.request.optimize:
            terms = self.objective_terms(objective)
            objective_costs[objective] = sum(
                t.weight
                for t in terms
                if (t.lit > 0) == model.get(abs(t.lit), False)
            )
        return DesignSolution(
            systems=sorted(systems),
            features=features,
            hardware={m: n for m, n in hardware.items() if n > 0},
            properties=properties,
            objective_costs=objective_costs,
            ledger=ledger,
            cost_usd=cost,
            power_w=power,
        )

    def _ledger(
        self, systems: list[str], hardware: dict[str, int]
    ) -> ResourceLedger:
        ledger = ResourceLedger()
        kflows = self.request.total_kflows()
        gbps = self.request.total_gbps()
        if self.request.total_cores():
            ledger.demand("cpu_cores", self.request.total_cores())
        if self.request.total_mem_gb():
            ledger.demand("server_mem_gb", self.request.total_mem_gb())
        for name in systems:
            for demand in self.kb.system(name).resources:
                ledger.demand(demand.kind, demand.evaluate(kflows, gbps))
        device_caps: dict[str, int] = {}
        for model, units in hardware.items():
            if units <= 0:
                continue
            for kind, amount in self.kb.hardware_model(model).capacities().items():
                if is_additive(kind):
                    ledger.supply(kind, amount * units)
                else:
                    # Per-device resources do not pool: the effective
                    # capacity is the weakest deployed device's.
                    current = device_caps.get(kind)
                    device_caps[kind] = (
                        amount if current is None else min(current, amount)
                    )
        for kind, amount in device_caps.items():
            ledger.supply(kind, amount)
        return ledger


def static_context_of(request: DesignRequest) -> dict[str, bool]:
    """Grounding context for ordering conditions under *request*.

    Context flags come from the request; everything else (feature flags,
    workload props of undeclared workloads) conservatively defaults to
    False — the engine never invents facts.
    """
    context = {f"ctx::{k}": v for k, v in request.context.items()}
    for prop_name in request.given_properties:
        context[f"prop::{prop_name}"] = True
    for workload in request.workloads:
        for prop_name in workload.properties:
            context[f"wl::{workload.name}::{prop_name}"] = True
    return context


def request_entity_scope(kb: KnowledgeBase, request: DesignRequest) -> frozenset:
    """The KB entity keys grounding *request* actually reads.

    A request pinning ``candidate_systems``/``inventory`` depends only on
    those entities; an unpinned one ranges over the whole catalog and so
    also depends on the membership keys (``systems@``/``hardware@``) —
    an *addition* must invalidate it even though no pinned key changed.
    Rules always apply in full. Ordering dimensions enter through
    optimization objectives and performance bounds; a dimension's key is
    in scope even while the dimension is empty, so its first edge is
    seen as a change.

    Two KB states agreeing on every key in this scope ground *request*
    to an identical formula — the invariant that lets scoped
    fingerprints (:meth:`KnowledgeBase.scoped_fingerprint`) stand in for
    the global fingerprint in cache keys and session-pool keys.

    Memoized per request instance and KB version (requests are immutable
    after submission, same contract as ``shape_key``).
    """
    memo = getattr(request, "_entity_scope_memo", None)
    if memo is not None and memo[0] is kb and memo[1] == kb.version:
        return memo[2]
    keys: set[tuple[str, str]] = set()
    if request.candidate_systems is None:
        keys.add(("systems@", ""))
        keys.update(("system", name) for name in kb.systems)
    else:
        keys.update(("system", name) for name in request.candidate_systems)
    keys.update(("system", name) for name in request.required_systems)
    keys.update(("system", name) for name in request.forbidden_systems)
    if request.inventory is None:
        keys.add(("hardware@", ""))
        keys.update(("hardware", model) for model in kb.hardware)
    else:
        keys.update(("hardware", model) for model in request.inventory)
    keys.update(("hardware", model) for model in request.fixed_hardware)
    keys.add(("rules@", ""))
    keys.update(("rule", name) for name in kb.rules)
    for objective in request.optimize:
        if objective not in COST_OBJECTIVES:
            keys.add(("ordering", objective))
    for workload in request.workloads:
        for bound in workload.performance_bounds:
            keys.add(("ordering", bound.dimension))
    scope = frozenset(keys)
    request._entity_scope_memo = (kb, kb.version, scope)
    return scope


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


class _Compiler:
    """Single-use helper that builds a :class:`CompiledDesign`."""

    def __init__(
        self, kb: KnowledgeBase, request: DesignRequest, observer=None
    ):
        self.kb = kb
        self.request = request
        if observer is not None and observer.enabled:
            self.solver = Solver(
                progress_callback=observer.progress,
                progress_interval=observer.progress_interval,
            )
        else:
            self.solver = Solver()
        self.builder = CnfBuilder(self.solver)
        self.encoder = IntEncoder(self.solver)
        self.candidates = self._candidate_systems()
        self.hw_models = self._hardware_models()
        self.compiled = CompiledDesign(
            kb=kb,
            request=request,
            solver=self.solver,
            builder=self.builder,
            encoder=self.encoder,
            candidates=self.candidates,
            hw_models=self.hw_models,
        )
        # Guard registrations land here; ground_request() temporarily
        # redirects them into a per-query selector map.
        self._selectors = self.compiled.selectors
        self._descriptions = self.compiled.descriptions
        #: Canonical names of request-specific groups (vs KB-static ones).
        self._request_names: set[str] = set()
        self._in_request = False
        self._static_selectors: dict[str, int] = {}
        self._static_descriptions: dict[str, str] = {}
        self._referenced_ctx: set[str] = set()

    # -- setup helpers ---------------------------------------------------------

    def _candidate_systems(self) -> list[str]:
        request, kb = self.request, self.kb
        if request.candidate_systems is None:
            names = list(kb.systems)
        else:
            names = list(request.candidate_systems)
        for name in (
            names + request.required_systems + request.forbidden_systems
        ):
            if name not in kb.systems:
                raise UnknownEntityError(f"unknown system {name!r} in request")
        for name in request.required_systems:
            if name not in names:
                names.append(name)
        return names

    def _hardware_models(self) -> list[str]:
        request, kb = self.request, self.kb
        if request.inventory is None:
            models = list(kb.hardware)
        else:
            models = list(request.inventory)
        for model in list(request.fixed_hardware):
            if model not in models:
                models.append(model)
        for model in models:
            if model not in kb.hardware:
                raise UnknownEntityError(f"unknown hardware model {model!r}")
        return models

    def _guard(
        self, name: str, description: str, content: object = ""
    ) -> tuple[Var, bool]:
        """Guard variable for a constraint group, deduplicated by content.

        Groups are registered under ``(name, content)``: re-grounding the
        same group fetches its existing guard without re-encoding, while
        a group with the same canonical name but different content (a
        what-if variant of a budget, bound, or context value) gets a
        fresh suffixed guard variable (``guard::name#k``). Returns
        ``(guard_var, created)`` — callers emit the guarded clauses only
        when *created* is true. The selector map always records the
        canonical name, so cores and diagnoses read the same regardless
        of which variant is active.
        """
        compiled = self.compiled
        if self._in_request:
            self._request_names.add(name)
        entry = compiled.request_groups.get((name, content))
        if entry is not None:
            guard_name, lit = entry
            self._selectors[name] = lit
            self._descriptions[name] = description
            return Var(guard_name), False
        variant = compiled._guard_variants.get(name, 0)
        compiled._guard_variants[name] = variant + 1
        guard_name = (
            f"guard::{name}" if variant == 0 else f"guard::{name}#{variant}"
        )
        lit = self.builder.var_for(guard_name)
        compiled.request_groups[(name, content)] = (guard_name, lit)
        self._selectors[name] = lit
        self._descriptions[name] = description
        return Var(guard_name), True

    def _add_guarded(self, name: str, description: str, formula: Formula) -> None:
        guard, created = self._guard(name, description, content=formula)
        if created:
            self.builder.add_formula(Implies(guard, formula))

    def _footprint(self, name: str, *keys: tuple[str, str]) -> None:
        """Record which KB entities group *name*'s clauses came from."""
        if keys:
            self.compiled.group_entities[name] = frozenset(keys)

    # -- main ------------------------------------------------------------------

    def run(self) -> CompiledDesign:
        self._ground_systems()
        self._in_request = True
        self._ground_required_forbidden(self.request)
        self._in_request = False
        self._ground_hardware()
        self._ground_rules()
        self._assert_workload_props(self.request)
        self._in_request = True
        self._ground_request_objectives(self.request)
        self._in_request = False
        self._ground_obj_closure()
        self._in_request = True
        self._ground_performance_bounds(self.request)
        self._in_request = False
        self._ground_resources()
        self._in_request = True
        self._ground_budgets(self.request)
        self._in_request = False
        if self.request.include_common_sense:
            self._ground_common_sense()
        self._close_world()
        self._static_selectors = {
            n: lit
            for n, lit in self.compiled.selectors.items()
            if n not in self._request_names
        }
        self._static_descriptions = {
            n: d
            for n, d in self.compiled.descriptions.items()
            if n not in self._request_names
        }
        return self.compiled

    def ground_request(
        self, request: DesignRequest
    ) -> tuple[dict[str, int], dict[str, str]]:
        """Ground (or fetch) every request-specific group for *request*.

        Used by :class:`~repro.core.session.ReasoningSession` after the
        base compile: groups already in the registry are reused verbatim
        (no new clauses), new variants are encoded incrementally on the
        persistent solver. Returns the per-query ``(selectors,
        descriptions)`` maps, static groups included — exactly the shape
        a fresh compile would have produced for *request*.
        """
        selectors = dict(self._static_selectors)
        descriptions = dict(self._static_descriptions)
        self._selectors, self._descriptions = selectors, descriptions
        self._in_request = True
        try:
            self._ground_required_forbidden(request)
            self._ground_fixed_hardware(request)
            self._ground_request_objectives(request)
            self._ground_performance_bounds(request)
            self._ground_budgets(request)
            self._ground_context(request)
        finally:
            self._in_request = False
            self._selectors = self.compiled.selectors
            self._descriptions = self.compiled.descriptions
        return selectors, descriptions

    # -- delta absorption ------------------------------------------------------

    def patch_entities(self, touched: frozenset) -> bool:
        """Absorb a rule/ordering KB delta into the live solver.

        *touched* is the set of changed entity keys, already restricted
        by the session to :data:`repro.kb.registry.PATCHABLE_KINDS`.
        Ordering changes need no clause work at all: ordering graphs are
        rebuilt per query from the live KB, and ``bound:*`` groups are
        content-keyed variants that simply stop being fetched when the
        formula they encode changes. Hard rules are the one statically
        encoded group kind — each changed rule's guard group is retired
        (guard hard-negated, registry entries dropped so content dedup
        can never resurrect it) and, if the rule still exists, re-ground
        behind a fresh guard variant.

        Returns ``False`` when the change cannot be absorbed soundly —
        a rule that is or was *soft* (unguarded PB terms cannot be
        retired), or a new formula referencing variables the compiled
        base never named (the preprocessor may have eliminated the
        anonymous internals such a formula would need). The caller falls
        back to a full rebase.
        """
        rule_names = sorted({name for kind, name in touched if kind == "rule"})
        soft_names = set(self.compiled.soft_rule_names.values())
        known = set(self.builder.known_names())
        for name in rule_names:
            if name in soft_names:
                return False
            rule = self.kb.rules.get(name)
            if rule is None:
                continue
            if rule.severity != "hard":
                return False
            if not free_vars(rule.formula) <= known:
                return False
        for name in rule_names:
            group = f"rule:{name}"
            self._retire_group(group)
            rule = self.kb.rules.get(name)
            if rule is None:
                continue
            self._add_guarded(group, rule.description or rule.name, rule.formula)
            self._footprint(group, ("rule", name))
            self._static_selectors[group] = self.compiled.selectors[group]
            self._static_descriptions[group] = self.compiled.descriptions[group]
        return True

    def _retire_group(self, name: str) -> None:
        """Permanently disable every variant of a guarded group."""
        for key in [k for k in self.compiled.request_groups if k[0] == name]:
            _guard_name, lit = self.compiled.request_groups.pop(key)
            self.solver.add_clause([-lit])
        self.compiled.selectors.pop(name, None)
        self.compiled.descriptions.pop(name, None)
        self._static_selectors.pop(name, None)
        self._static_descriptions.pop(name, None)
        self.compiled.group_entities.pop(name, None)

    def _ground_systems(self) -> None:
        seen_conflicts: set[tuple[str, str]] = set()
        for name in self.candidates:
            system = self.kb.system(name)
            sys_lit = self.builder.var_for(f"sys::{name}")
            self.compiled.sys_lits[name] = sys_lit
            requires: list[Formula] = [system.requires]
            if system.research:
                requires.append(Var("prop::site::RESEARCH_OK"))
            self._add_guarded(
                f"require:{name}",
                system.description or f"deployment requirements of {name}",
                Implies(Var(f"sys::{name}"), And(*requires)),
            )
            self._footprint(f"require:{name}", ("system", name))
            for other in system.conflicts:
                if other not in self.candidates:
                    continue
                pair = tuple(sorted((name, other)))
                if pair in seen_conflicts:
                    continue
                seen_conflicts.add(pair)
                self._add_guarded(
                    f"conflict:{pair[0]}|{pair[1]}",
                    f"{pair[0]} and {pair[1]} cannot coexist",
                    Not(And(Var(f"sys::{pair[0]}"), Var(f"sys::{pair[1]}"))),
                )
                self._footprint(
                    f"conflict:{pair[0]}|{pair[1]}",
                    ("system", pair[0]), ("system", pair[1]),
                )
            for feature in system.features:
                feat_name = f"feat::{name}::{feature.name}"
                feat_lit = self.builder.var_for(feat_name)
                self.compiled.feat_lits[(name, feature.name)] = feat_lit
                self._add_guarded(
                    f"feature:{name}:{feature.name}",
                    feature.description
                    or f"requirements of {name}'s {feature.name} feature",
                    And(
                        Implies(Var(feat_name), Var(f"sys::{name}")),
                        Implies(Var(feat_name), feature.requires),
                    ),
                )
                self._footprint(
                    f"feature:{name}:{feature.name}", ("system", name)
                )

    def _ground_required_forbidden(self, request: DesignRequest) -> None:
        for name in request.required_systems:
            if name not in self.compiled.sys_lits:
                raise UnknownEntityError(
                    f"required system {name!r} is not a candidate in this "
                    "compiled design"
                )
            self._add_guarded(
                f"required:{name}",
                f"the architect requires {name}",
                Var(f"sys::{name}"),
            )
        for name in request.forbidden_systems:
            if name in self.compiled.sys_lits:
                self._add_guarded(
                    f"forbidden:{name}",
                    f"the architect forbids {name}",
                    Not(Var(f"sys::{name}")),
                )

    def _ground_hardware(self) -> None:
        for model in self.hw_models:
            hardware = self.kb.hardware_model(model)
            max_units = hardware.max_units
            if self.request.inventory is not None:
                max_units = self.request.inventory.get(model, max_units)
            fixed = self.request.fixed_hardware.get(model)
            if fixed is not None:
                max_units = max(max_units, fixed)
            count = IntVar(f"count::{model}", 0, max_units)
            self.compiled.hw_counts[model] = count
            hw_lit = self.builder.var_for(f"hw::{model}")
            self.compiled.hw_bools[model] = hw_lit
            # hw::model <-> count >= 1
            ge1 = self.encoder.reify(count >= 1)
            self.solver.add_clause([-hw_lit, ge1])
            self.solver.add_clause([hw_lit, -ge1])
            if fixed is not None:
                self._in_request = True
                self._fixed_guard(model, fixed)
                self._in_request = False

    def _fixed_guard(self, model: str, fixed: int) -> None:
        guard, created = self._guard(
            f"fixed_hardware:{model}",
            f"hardware {model} frozen at {fixed} unit(s)",
            content=("eq", model, fixed),
        )
        if created:
            self.encoder.assert_implies(
                self.builder.var_for(guard.name),
                self.compiled.hw_counts[model].eq(fixed),
            )

    def _ground_fixed_hardware(self, request: DesignRequest) -> None:
        for model, fixed in request.fixed_hardware.items():
            count = self.compiled.hw_counts.get(model)
            if count is None:
                raise UnknownEntityError(
                    f"fixed hardware {model!r} is not in this compiled "
                    "design's inventory"
                )
            if fixed > count.hi:
                raise QueryError(
                    f"fixed count {fixed} for {model!r} exceeds the "
                    f"compiled domain [0, {count.hi}]"
                )
            self._fixed_guard(model, fixed)

    def _ground_rules(self) -> None:
        for rule in self.kb.rules.values():
            if rule.severity == "hard":
                self._add_guarded(
                    f"rule:{rule.name}",
                    rule.description or rule.name,
                    rule.formula,
                )
                self._footprint(f"rule:{rule.name}", ("rule", rule.name))
            else:
                lit = self.builder.literal(rule.formula)
                term = PBTerm(rule.weight, -lit)
                self.compiled.soft_rule_terms.append(term)
                self.compiled.soft_rule_names[-lit] = rule.name

    def _assert_workload_props(self, request: DesignRequest) -> None:
        for workload in request.workloads:
            for prop_name in workload.properties:
                self.builder.add_formula(Var(f"wl::{workload.name}::{prop_name}"))

    def _ground_request_objectives(self, request: DesignRequest) -> None:
        for objective in request.required_objectives():
            solvers = [
                s for s in self.candidates
                if objective in self.kb.system(s).solves
            ]
            self._add_guarded(
                f"objective:{objective}",
                f"some deployed system must solve {objective!r}",
                Or(*[Var(f"sys::{s}") for s in solvers]),
            )

    def _ground_obj_closure(self) -> None:
        # Definitional closure for obj:: variables referenced anywhere.
        for obj_name in sorted(self._referenced("obj")):
            solvers = [
                s for s in self.candidates
                if obj_name in self.kb.system(s).solves
            ]
            self.builder.add_formula(
                Var(f"obj::{obj_name}").iff(
                    Or(*[Var(f"sys::{s}") for s in solvers])
                )
            )

    def _ground_performance_bounds(self, request: DesignRequest) -> None:
        context = static_context_of(request)
        for workload in request.workloads:
            for bound in workload.performance_bounds:
                graph = self.kb.ordering_graph(bound.dimension, context)
                excluded = [
                    s
                    for s in self.candidates
                    if bound.objective in self.kb.system(s).solves
                    and graph.better_than(bound.better_than, s)
                ]
                if not excluded:
                    continue
                self._add_guarded(
                    f"bound:{workload.name}:{bound.objective}",
                    f"{workload.name} needs {bound.objective} better than "
                    f"{bound.better_than} (on {bound.dimension})",
                    And(*[Not(Var(f"sys::{s}")) for s in excluded]),
                )
                self._footprint(
                    f"bound:{workload.name}:{bound.objective}",
                    ("ordering", bound.dimension),
                )

    def _ground_resources(self) -> None:
        kflows = self.request.total_kflows()
        gbps = self.request.total_gbps()
        kinds: set[str] = set()
        for name in self.candidates:
            for demand in self.kb.system(name).resources:
                kinds.add(demand.kind)
        if self.request.total_cores():
            kinds.add("cpu_cores")
        if self.request.total_mem_gb():
            kinds.add("server_mem_gb")
        for kind in sorted(kinds):
            demand_expr = LinExpr()
            per_system: list[tuple[str, int]] = []
            if kind == "cpu_cores":
                demand_expr = demand_expr + self.request.total_cores()
            elif kind == "server_mem_gb":
                demand_expr = demand_expr + self.request.total_mem_gb()
            for name in self.candidates:
                demand = self.kb.system(name).demand_for(kind)
                if demand is None:
                    continue
                amount = demand.evaluate(kflows, gbps)
                if amount == 0:
                    continue
                demand_expr = demand_expr + amount * self._sys_int(name)
                per_system.append((name, amount))
            if not demand_expr.coeffs and demand_expr.const == 0:
                continue
            if is_additive(kind):
                self._additive_resource(kind, demand_expr)
            else:
                self._per_device_resource(kind, demand_expr, per_system)

    def _additive_resource(self, kind: str, demand_expr: LinExpr) -> None:
        """Pooled capacity: total demand <= sum of unit capacities."""
        capacity_expr = LinExpr()
        for model in self.hw_models:
            per_unit = self.kb.hardware_model(model).capacities().get(kind, 0)
            if per_unit:
                capacity_expr = (
                    capacity_expr + per_unit * self.compiled.hw_counts[model]
                )
        guard, created = self._guard(
            f"resource:{kind}",
            f"aggregate {kind} demand must fit deployed capacity",
        )
        if created:
            self.encoder.assert_implies(
                self.builder.var_for(guard.name),
                demand_expr <= capacity_expr,
            )

    def _per_device_resource(
        self,
        kind: str,
        demand_expr: LinExpr,
        per_system: list[tuple[str, int]],
    ) -> None:
        """Per-device contention (§2.2): the programs run on every device,
        so the *total* demand must fit *each* deployed device model, and
        any demand at all requires a capable device to exist."""
        guard, created = self._guard(
            f"resource:{kind}",
            f"total {kind} demand must fit every deployed device "
            f"(per-device resource)",
        )
        if not created:
            return
        guard_lit = self.builder.var_for(guard.name)
        providers: list[tuple[str, int]] = []
        for model in self.hw_models:
            per_unit = self.kb.hardware_model(model).capacities().get(kind, 0)
            if per_unit:
                providers.append((model, per_unit))
        for model, per_unit in providers:
            fits = self.encoder.reify(demand_expr <= per_unit)
            self.solver.add_clause(
                [-guard_lit, -self.compiled.hw_bools[model], fits]
            )
        for name, amount in per_system:
            capable = [
                self.compiled.hw_bools[model]
                for model, per_unit in providers
                if per_unit >= amount
            ]
            self.solver.add_clause(
                [-guard_lit, -self.compiled.sys_lits[name]] + capable
            )

    def _ground_budgets(self, request: DesignRequest) -> None:
        for kind, budget in request.budgets.items():
            spend = LinExpr()
            for model in self.hw_models:
                hardware = self.kb.hardware_model(model)
                unit = {
                    "capex_usd": hardware.cost_usd,
                    "power_w": hardware.power_w,
                }.get(kind)
                if unit is None:
                    raise QueryError(f"unsupported budget kind {kind!r}")
                if unit:
                    spend = spend + unit * self.compiled.hw_counts[model]
            guard, created = self._guard(
                f"budget:{kind}",
                f"{kind} budget of {budget}",
                content=("le", kind, budget),
            )
            if created:
                self.encoder.assert_implies(
                    self.builder.var_for(guard.name), spend <= budget
                )

    def _sys_int(self, name: str) -> IntVar:
        """0/1 IntVar bound to a system's selection boolean."""
        var = IntVar(f"sysint::{name}", 0, 1)
        self.encoder.bind_boolean(var, self.compiled.sys_lits[name])
        return var

    def _hw_kind_count(self, kind: str) -> LinExpr:
        expr = LinExpr()
        for model in self.hw_models:
            if self.kb.hardware_model(model).kind == kind:
                expr = expr + self.compiled.hw_counts[model]
        return expr

    def _ground_common_sense(self) -> None:
        # At most one system per exclusive category.
        for category in sorted(self.request.exclusive_categories):
            members = [
                s
                for s in self.candidates
                if self.kb.system(s).category == category
            ]
            if len(members) > 1:
                self._add_guarded(
                    f"cs:exclusive:{category}",
                    f"at most one {category} can be deployed",
                    AtMost(1, [Var(f"sys::{s}") for s in members]),
                )
        if not self.request.workloads:
            return
        # Every deployment serving workloads needs a network stack.
        stacks = [
            s
            for s in self.candidates
            if self.kb.system(s).category == "network_stack"
        ]
        self._add_guarded(
            "cs:need_stack",
            "servers must run some network stack",
            Or(*[Var(f"sys::{s}") for s in stacks]),
        )
        # Servers need NICs; serving traffic needs at least one switch.
        servers = self._hw_kind_count("server")
        nics = self._hw_kind_count("nic")
        switches = self._hw_kind_count("switch")
        if servers.coeffs:
            guard, created = self._guard(
                "cs:servers_need_nics", "every server needs a NIC"
            )
            if created:
                self.encoder.assert_implies(
                    self.builder.var_for(guard.name), servers <= nics
                )
        if switches.coeffs:
            guard, created = self._guard(
                "cs:need_switch", "serving traffic needs at least one switch"
            )
            if created:
                self.encoder.assert_implies(
                    self.builder.var_for(guard.name), switches >= 1
                )

    # -- closed world -------------------------------------------------------------

    def _referenced(self, namespace: str) -> set[str]:
        """Names (sans namespace) referenced in any KB formula."""
        out: set[str] = set()
        for formula in self._all_formulas():
            for var_name in free_vars(formula):
                if namespace_of(var_name) == namespace:
                    out.add(var_name.split("::", 1)[1])
        return out

    def _all_formulas(self) -> list[Formula]:
        formulas: list[Formula] = []
        for name in self.candidates:
            system = self.kb.system(name)
            formulas.append(system.requires)
            formulas.extend(f.requires for f in system.features)
            if system.research:
                # The synthesized research gate references this property
                # even when no written formula does.
                formulas.append(Var("prop::site::RESEARCH_OK"))
        formulas.extend(r.formula for r in self.kb.rules.values())
        formulas.extend(o.condition for o in self.kb.orderings)
        return formulas

    def _close_world(self) -> None:
        """Ground prop/ctx/wl/feat variables that something references."""
        # Property closure: prop <-> OR(providers).
        referenced_props = {
            f"prop::{p}" for p in self._referenced("prop")
        }
        providers: dict[str, list[Formula]] = {}
        for name in self.candidates:
            for provided in self.kb.system(name).provides:
                providers.setdefault(f"prop::{provided}", []).append(
                    Var(f"sys::{name}")
                )
        for model in self.hw_models:
            for provided in self.kb.hardware_model(model).provides():
                providers.setdefault(f"prop::{provided}", []).append(
                    Var(f"hw::{model}")
                )
        prop_names = referenced_props | set(providers)
        given = {f"prop::{p}" for p in self.request.given_properties}
        for prop_name in sorted(prop_names):
            if prop_name in given:
                self.builder.add_formula(Var(prop_name))
                continue
            sources = providers.get(prop_name, [])
            self.builder.add_formula(Var(prop_name).iff(Or(*sources)))
        for prop_name in sorted(given - prop_names):
            self.builder.add_formula(Var(prop_name))
        # Context flags: request values, everything else false.
        self._referenced_ctx = self._referenced("ctx")
        self._in_request = True
        self._ground_context(self.request)
        self._in_request = False
        # Workload property vars: true ones were asserted in
        # _ground_objectives; referenced-but-undeclared ones become false.
        declared = {
            f"wl::{w.name}::{p}"
            for w in self.request.workloads
            for p in w.properties
        }
        for ref in sorted(self._referenced("wl")):
            full = f"wl::{ref}"
            if full not in declared:
                self.builder.add_formula(Not(Var(full)))
        # Feature flags referenced in formulas but not declared by any
        # candidate system are closed off.
        declared_feats = {
            f"feat::{s}::{f.name}"
            for s in self.candidates
            for f in self.kb.system(s).features
        }
        for ref in sorted(self._referenced("feat")):
            full = f"feat::{ref}"
            if full not in declared_feats:
                self.builder.add_formula(Not(Var(full)))

    def _ground_context(self, request: DesignRequest) -> None:
        """Every referenced or requested context flag, pinned per query."""
        for ctx_name in sorted(self._referenced_ctx | set(request.context)):
            value = request.context.get(ctx_name, False)
            self._add_guarded(
                f"context:{ctx_name}",
                f"deployment context: {ctx_name} = {value}",
                Var(f"ctx::{ctx_name}") if value else Not(Var(f"ctx::{ctx_name}")),
            )


def validate_request_entities(
    kb: KnowledgeBase, request: DesignRequest
) -> None:
    """Raise :class:`UnknownEntityError` for names *request* references
    that are not in *kb*.

    A fresh compile performs these checks while selecting candidates;
    the incremental session path must run them explicitly, because a
    guard for e.g. an unknown forbidden system would otherwise be
    silently skipped instead of rejected.
    """
    names = list(request.required_systems) + list(request.forbidden_systems)
    if request.candidate_systems is not None:
        names += list(request.candidate_systems)
    for name in names:
        if name not in kb.systems:
            raise UnknownEntityError(f"unknown system {name!r} in request")
    models = list(request.fixed_hardware)
    if request.inventory is not None:
        models += list(request.inventory)
    for model in models:
        if model not in kb.hardware:
            raise UnknownEntityError(f"unknown hardware model {model!r}")


def compile_design(
    kb: KnowledgeBase, request: DesignRequest, observer=None
) -> CompiledDesign:
    """Compile *request* against *kb* into a solvable form.

    With an :class:`~repro.obs.observer.EngineObserver`, the grounding
    work is traced under a ``compile`` span and the built solver streams
    progress snapshots into the observer's recorder.
    """
    if observer is not None and observer.enabled:
        with observer.tracer.span("compile"):
            return _Compiler(kb, request, observer).run()
    return _Compiler(kb, request).run()
