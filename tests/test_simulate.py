"""Data generators and the experiment runner."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drumtest.model as model
import drumtest.simulate as sim
from drumtest import catalog
from drumtest.errors import ParameterError
from drumtest.geometry import ABOVE, compute_patches, enumerate_demand_types
from drumtest.model import PanelDataset, PanelRecord, estimate_rho
from drumtest.representations import (build_static_A, enumerate_orders, kron_dynamic,
                                      static_type_matrix)
from drumtest.simulate import (BINARY_MARGINALS, SUMMED_DIAGNOSTICS, DgpSpec,
                               agents_per_path_for, build_universe, observed_menu_paths,
                               run_experiment, simulate, type_matrix_for)


def reference_simulate(dgp: DgpSpec, agents_per_path: int, seed: int = 0):
    """The scalar generator that drew one agent and one record at a time,
    frozen as the reference the columnar ``simulate`` must reproduce draw
    for draw. The walk draws every agent's first-period share, then every
    agent's innovation, one scalar at a time."""
    rng = np.random.default_rng(seed)
    universe, budgets = build_universe(dgp)
    paths = observed_menu_paths(dgp, universe)
    records = []
    agent = 0
    if dgp.kind.startswith("cobb"):
        walk = dgp.kind == "cobb-douglas-walk"
        persistence = dgp.params.get("persistence", 0.9)
        sd = dgp.params.get("innovation_sd", 5.0)
        corr = dgp.params.get("correlation", 0.5)
        prices = {t: {b.index: b.p() for b in budgets[t]} for t in universe.periods}
        if walk:
            n_agents = len(paths) * agents_per_path
            shares = [rng.uniform() for _ in range(n_agents)]
            innovations = [rng.normal(0.0, sd) for _ in range(n_agents)]
        for path in paths:
            for _ in range(agents_per_path):
                agent += 1
                if walk:
                    a1 = shares[agent - 1]
                    a2 = min(max(persistence * a1 + innovations[agent - 1], 0.0), 1.0)
                    alphas = (a1, a2)
                else:
                    cov = np.array([[1.0, corr], [corr, 1.0]])
                    eps = rng.multivariate_normal(np.zeros(2), cov)
                    alphas = tuple(np.arctan(e) / np.pi + 0.5 for e in eps)
                for t, j, alpha in zip(universe.periods, path, alphas):
                    p = prices[t][j]
                    y = np.array([alpha / p[0], (1 - alpha) / p[1]])
                    other = next(i for i in prices[t] if i != j)
                    above = float(prices[t][other] @ y) > 1.0
                    menu = universe.menu(t, j)
                    if j == 1:
                        pos = 1 if above else 2
                    else:
                        pos = 2 if above else 1
                    records.append(PanelRecord(agent, t, j, menu.items[pos - 1],
                                               tuple(y.tolist())))
    elif dgp.kind.startswith("binary"):
        marg = dgp.params.get("marginals")
        if marg is None:
            marg = BINARY_MARGINALS[dgp.kind]
        marg = np.asarray(marg, dtype=float)
        first = {menu.index: marg[2 * (menu.index - 1)]
                 for menu in universe.menus[universe.periods[0]]}
        for path in paths:
            for _ in range(agents_per_path):
                agent += 1
                for t, j in zip(universe.periods, path):
                    menu = universe.menu(t, j)
                    pick = 0 if rng.uniform() < first[j] else 1
                    records.append(PanelRecord(agent, t, j, menu.items[pick]))
    else:
        profiles = dgp.params["profiles"]
        weights = np.asarray(dgp.params["weights"], dtype=float)
        weights = weights / weights.sum()
        for path in paths:
            draws = rng.choice(len(profiles), size=agents_per_path, p=weights)
            for d in draws:
                agent += 1
                for t, j, ranking in zip(universe.periods, path, profiles[d]):
                    menu = universe.menu(t, j)
                    pos_of = {a: k for k, a in enumerate(ranking)}
                    records.append(PanelRecord(agent, t, j, min(menu.items,
                                                                key=lambda a: pos_of[a])))
    return PanelDataset(tuple(records)), universe


def _order_mixture():
    uni = catalog.binary_universe(("l1", "l2", "l3"), (1, 2, 3))
    orders = list(itertools.permutations(("l1", "l2", "l3")))
    rotation = (("l1", "l2", "l3"), ("l2", "l3", "l1"), ("l3", "l1", "l2"))
    return DgpSpec("order-mixture", {"universe": uni,
                                     "profiles": [(r, r, r) for r in orders] + [rotation],
                                     "weights": [0.14] * 6 + [0.16],
                                     "menu_paths": sorted(itertools.permutations((1, 2, 3)))})


EQUIVALENCE_DGPS = [DgpSpec("cobb-douglas-walk"), DgpSpec("cobb-douglas-gaussian-copula"),
                    DgpSpec("binary1"), DgpSpec("binary2"), DgpSpec("binary3"),
                    _order_mixture()]


class TestMatchesScalarReference:
    """The columnar generator draws the same stream as the scalar one."""

    @pytest.mark.parametrize("dgp", EQUIVALENCE_DGPS, ids=lambda d: d.kind)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("agents", [1, 40])
    def test_same_records_and_counts(self, dgp, seed, agents):
        panel, uni = simulate(dgp, agents, seed=seed)
        ref, _ = reference_simulate(dgp, agents, seed=seed)
        assert len(panel.records) == len(ref.records)
        for got, want in zip(panel.records, ref.records):
            assert (got.agent_id, got.period, got.menu_id, got.choice_id) == \
                (want.agent_id, want.period, want.menu_id, want.choice_id)
            if want.quantity is None:
                assert got.quantity is None
            else:
                assert np.allclose(got.quantity, want.quantity, rtol=0, atol=1e-12)
        rho, rho_ref = estimate_rho(panel, uni), estimate_rho(ref, uni)
        assert rho.choice_counts.keys() == rho_ref.choice_counts.keys()
        for path, counts in rho_ref.choice_counts.items():
            assert np.array_equal(rho.choice_counts[path], counts)


    @pytest.mark.parametrize("dgp", EQUIVALENCE_DGPS, ids=lambda d: d.kind)
    def test_columns_match_a_list_built_period_column(self, dgp):
        panel, uni = simulate(dgp, 7, seed=3)
        n = len(panel.agent) // uni.num_periods
        listed = PanelDataset.from_columns(panel.agent, list(uni.periods) * n, panel.menu,
                                           panel.choice_codes, panel.quantity,
                                           choice_ids=panel.choice_ids)
        for name in ("agent", "period", "menu", "choice_codes", "quantity"):
            got, want = getattr(panel, name), getattr(listed, name)
            if want is None:
                assert got is None
            else:
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert panel.choice_ids == listed.choice_ids


class TestMonteCarloRoute:
    """A Monte Carlo sim tallies the generator's draws without a panel; its
    rho is that of the simulated panel, bit for bit."""

    @staticmethod
    def _captured_rhos(monkeypatch, dgp, n, entropies):
        """The rho of each sim of ``_run_sims``, read off ``run_test``."""
        rhos = []

        def capture(rho, A, config):
            rhos.append(rho)
            return SimpleNamespace(reject=False, statistic=0.0,
                                   diagnostics=dict.fromkeys(SUMMED_DIAGNOSTICS, 0))

        monkeypatch.setattr(sim, "run_test", capture)
        sim._run_sims(dgp, n, [np.random.SeedSequence(e) for e in entropies], 19, 0.05)
        return rhos

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), dgp=st.sampled_from(EQUIVALENCE_DGPS),
           entropy=st.integers(0, 2**32 - 1))
    def test_sim_rho_is_the_simulated_panels(self, data, dgp, entropy):
        # agents per path 1-60: demand designs put 4 agents per path per unit of N
        n = data.draw(st.integers(1, 15 if dgp.kind.startswith("cobb") else 60))
        with pytest.MonkeyPatch.context() as patch:
            (got,) = self._captured_rhos(patch, dgp, n, [entropy])
        panel_seed = np.random.SeedSequence(entropy).spawn(2)[0]
        want = estimate_rho(*simulate(dgp, agents_per_path_for(dgp, n), panel_seed))
        assert list(got.probs) == list(want.probs)
        for path in want.probs:
            assert got.probs[path].tobytes() == want.probs[path].tobytes()
            assert got.counts[path] == want.counts[path]
            assert got.choice_counts[path].dtype == want.choice_counts[path].dtype
            assert np.array_equal(got.choice_counts[path], want.choice_counts[path])

    def test_sims_build_no_panel_and_every_test_goes_through_the_attribute(self,
                                                                           monkeypatch):
        built, estimated, tested = [], [], []
        monkeypatch.setattr(model.PanelDataset, "_set_columns",
                            lambda self, *args: built.append(args))
        monkeypatch.setattr(model, "estimate_rho", lambda *args: estimated.append(args))
        monkeypatch.setattr(sim, "estimate_rho", lambda *args: estimated.append(args),
                            raising=False)
        real = sim.run_test

        def spy(*args, **kwargs):
            tested.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(sim, "run_test", spy)
        report = run_experiment([DgpSpec("cobb-douglas-walk"), DgpSpec("binary1"),
                                 _order_mixture()], [3], sims=4, reps=19, seed=5)
        assert len(report.entries) == 3 and len(tested) == 12
        assert built == [] and estimated == []

    @pytest.mark.parametrize("agents", [1, 3, 200, 2000])
    def test_copula_shares_are_per_path_multivariate_normal_draws(self, agents):
        dgp = DgpSpec("cobb-douglas-gaussian-copula")
        cov = np.array([[1.0, 0.5], [0.5, 1.0]])
        for seed in range(5):
            got = sim._draw_shares(dgp, np.random.default_rng(seed), 4, agents)
            rng = np.random.default_rng(seed)
            eps = np.concatenate([rng.multivariate_normal(np.zeros(2), cov, size=agents)
                                  for _ in range(4)])
            want = np.arctan(eps) / np.pi + 0.5
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_bad_sizes_raise_before_any_draw(self, monkeypatch):
        draws = []
        monkeypatch.setattr(np.random, "default_rng", lambda seed: draws.append(seed))
        for agents in (0, -1):
            with pytest.raises(ParameterError, match="agents per menu path"):
                simulate(DgpSpec("binary1"), agents)
        with pytest.raises(ParameterError, match="sims must be at least 1"):
            run_experiment([DgpSpec("binary1")], [5], sims=0)
        with pytest.raises(ParameterError, match="sample sizes must be at least 1"):
            run_experiment([DgpSpec("binary1")], [5, 0], sims=2)
        assert draws == []

    @pytest.mark.parametrize("corr", [1.5, -1.01, float("nan")])
    def test_copula_correlation_outside_the_unit_interval_is_rejected(self, corr):
        # a covariance that is not positive semi-definite has no SVD factor
        with pytest.raises(ParameterError, match="copula correlation"):
            simulate(DgpSpec("cobb-douglas-gaussian-copula", {"correlation": corr}), 3)


class TestDemandDgps:
    def test_zero_innovation_walk_is_deterministic(self):
        dgp = DgpSpec("cobb-douglas-walk", {"innovation_sd": 0.0})
        panel, uni = simulate(dgp, 30, seed=0)
        prices = {1: np.array([2.0, 1.0]), 2: np.array([1.0, 2.0])}
        by_agent = {}
        for rec in panel.records:
            by_agent.setdefault(rec.agent_id, {})[rec.period] = rec
        for agent, recs in by_agent.items():
            alphas = {}
            for t, rec in recs.items():
                p = prices[rec.menu_id]
                alphas[t] = p[0] * rec.quantity[0]  # alpha = p1 y1 / w with w=1
            assert alphas[2] == pytest.approx(0.9 * alphas[1], abs=1e-12)

    def test_copula_shares_stay_interior(self):
        dgp = DgpSpec("cobb-douglas-gaussian-copula")
        panel, uni = simulate(dgp, 50, seed=1)
        prices = {1: np.array([2.0, 1.0]), 2: np.array([1.0, 2.0])}
        for rec in panel.records:
            alpha = prices[rec.menu_id][0] * rec.quantity[0]
            assert 0.0 < alpha < 1.0

    def test_demands_lie_on_budget_lines(self):
        panel, uni = simulate(DgpSpec("cobb-douglas-walk"), 20, seed=2)
        prices = {1: np.array([2.0, 1.0]), 2: np.array([1.0, 2.0])}
        for rec in panel.records:
            assert prices[rec.menu_id] @ np.array(rec.quantity) == pytest.approx(1.0)

    def test_every_path_gets_the_same_count(self):
        panel, uni = simulate(DgpSpec("cobb-douglas-walk"), 15, seed=3)
        rho = estimate_rho(panel, uni)
        assert sorted(rho.counts.values()) == [15] * 4


    @pytest.mark.parametrize("kind", ["cobb-douglas-walk", "cobb-douglas-gaussian-copula"])
    def test_type_matrix_keeps_the_hand_coded_types(self, kind):
        """The SARP-filtered patch pairs are the ones the generator's matrix
        was built from by hand: every pair but (2, 1)."""
        dgp = DgpSpec(kind)
        universe, _ = build_universe(dgp)
        statics = [build_static_A(universe, t, [(1, 1), (1, 2), (2, 2)])
                   for t in universe.periods]
        reference = kron_dynamic(statics, observed_menu_paths(dgp, universe), universe)
        A = type_matrix_for(dgp, universe)
        assert (A.row_labels, A.col_labels) == (reference.row_labels, reference.col_labels)
        assert A.dense().tobytes() == reference.dense().tobytes()

    @pytest.mark.parametrize("kind", ["cobb-douglas-walk", "cobb-douglas-gaussian-copula",
                                      "binary1", "binary2", "binary3", "order-mixture"])
    def test_type_matrix_keeps_its_bytes(self, kind):
        """Every generator's matrix equals the one its per-period loop built
        before the type rule moved into ``static_type_matrix``."""
        params = {}
        if kind == "order-mixture":
            uni = catalog.binary_universe(("a", "b", "c"), (1, 2))
            params = {"universe": uni, "profiles": [(("a", "b", "c"), ("c", "b", "a"))],
                      "weights": [1.0], "menu_paths": [(1, 2), (3, 3)]}
        dgp = DgpSpec(kind, params)
        universe, _ = build_universe(dgp)
        reference = _legacy_type_matrix_for(dgp, universe)
        A = type_matrix_for(dgp, universe)
        assert (A.row_labels, A.col_labels) == (reference.row_labels, reference.col_labels)
        assert A.matrix.dtype == reference.matrix.dtype
        assert A.dense().tobytes() == reference.dense().tobytes()


def _legacy_type_matrix_for(dgp, universe):
    """type_matrix_for as a per-period loop that chose each period's types
    itself and rebuilt the demand budgets one period at a time."""
    statics = []
    for t in universe.periods:
        if dgp.kind.startswith("cobb"):
            budgets = catalog.simple_budgets((t,))[t]
            patches, _ = compute_patches(budgets, index_maps=catalog.SIMPLE_INDEX_MAPS)
            types, _ = enumerate_demand_types(patches, budgets)
            statics.append(build_static_A(universe, t, types))
        else:
            statics.append(build_static_A(universe, t, enumerate_orders(universe, t)))
    return kron_dynamic(statics, observed_menu_paths(dgp, universe), universe)


def _frozen_demand_tables(universe, budgets, patches_by_period):
    """``simulate._demand_tables`` before the cut rule, frozen: per period,
    one ``(budget index, prices, expenditure, others, position)`` tuple per
    budget."""
    tables = {}
    for t in universe.periods:
        rows = []
        for budget in budgets[t]:
            others = [b for b in budgets[t] if b.index != budget.index]
            menu = universe.menu(t, budget.index)
            position = np.full(1 << len(others), -1, dtype=np.intp)
            for pt in patches_by_period[t]:
                if pt.budget == budget.index and not pt.is_intersection:
                    code = sum(1 << b for b, o in enumerate(others)
                               if pt.sign_vector[o.index] == ABOVE)
                    position[code] = menu.position(pt.label) - 1
            rows.append((budget.index, budget.p(), budget.w(),
                         tuple((o.p(), o.w()) for o in others), position))
        tables[t] = tuple(rows)
    return tables


def _frozen_demand_choices(universe, tables, menus, shares):
    """``simulate._demand_choices`` before the cut rule, frozen: (positions,
    quantity) by boolean masks over all agents per budget. A point lying
    exactly on another budget line counts as below it."""
    positions = np.empty(menus.shape, dtype=np.intp)
    quantity = np.empty(menus.shape + (2,))
    for k, t in enumerate(universe.periods):
        for index, p, w, others, position in tables[t]:
            rows = menus[:, k] == index
            a = shares[rows, k]
            y = np.column_stack([a * w / p[0], (1 - a) * w / p[1]])
            code = np.zeros(len(y), dtype=np.intp)
            for b, (op, ow) in enumerate(others):
                code |= (y @ op > ow).astype(np.intp) << b
            positions[rows, k] = position[code]
            quantity[rows, k] = y
    return positions, quantity


DEMAND_KINDS = ["cobb-douglas-walk", "cobb-douglas-gaussian-copula"]


class TestCutRule:
    """A demand generator classifies each path block's shares by its
    budgets' cuts; the positions are those of the frozen per-budget masks,
    bit for bit, also on a cut and one ulp either side of it."""

    @staticmethod
    def _frozen(kind):
        universe, budgets, patches, _, _ = sim._catalog_structure(kind)
        return universe, _frozen_demand_tables(universe, budgets, patches)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(DEMAND_KINDS),
           seed=st.integers(0, 2**32 - 1), agents=st.integers(1, 2000))
    def test_positions_match_the_frozen_masks(self, data, kind, seed, agents):
        dgp = DgpSpec(kind)
        universe, frozen_tables = self._frozen(kind)
        tables = sim._catalog_structure(kind)[4]
        paths = observed_menu_paths(dgp, universe)
        menus, positions, shares = sim.draw_choices(dgp, agents, seed)
        want, quantity = _frozen_demand_choices(universe, frozen_tables, menus, shares)
        assert positions.dtype == want.dtype and positions.tobytes() == want.tobytes()
        points = sim._demand_points(universe, tables, menus, shares)
        assert points.tobytes() == quantity.tobytes()
        # shares on every cut of the agent's budget and one ulp either side
        placed = shares.copy()
        for k, t in enumerate(universe.periods):
            rows = data.draw(st.lists(st.integers(0, len(menus) - 1), max_size=12))
            for row in rows:
                cut = tables[t][int(menus[row, k])].cuts[0]
                placed[row, k] = data.draw(st.sampled_from(
                    [cut, np.nextafter(cut, -np.inf), np.nextafter(cut, np.inf)]))
        got = sim._demand_choices(universe, tables, paths, agents, placed)
        want, _ = _frozen_demand_choices(universe, frozen_tables, menus, placed)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", DEMAND_KINDS)
    def test_a_point_on_a_line_counts_as_below_it(self, kind):
        """Shares at each cut and the 200 floats around it: wherever the
        demand point lies exactly on the other budget line, the agent takes
        the patch below it, and the frozen masks agree everywhere."""
        dgp = DgpSpec(kind)
        universe, frozen_tables = self._frozen(kind)
        tables = sim._catalog_structure(kind)[4]
        paths = observed_menu_paths(dgp, universe)
        on_line = 0
        for k, t in enumerate(universe.periods):
            for index, table in tables[t].items():
                cut, (op, ow) = table.cuts[0], table.others[0]
                below, above = [cut], [cut]
                for _ in range(100):
                    below.append(np.nextafter(below[-1], -np.inf))
                    above.append(np.nextafter(above[-1], np.inf))
                a = np.array(below[::-1] + above[1:])
                # every agent of the paths through this budget takes these shares
                agents = len(a)
                menus = np.repeat(np.array(paths), agents, axis=0)
                shares = np.tile(a, len(paths))[:, None].repeat(len(universe.periods), axis=1)
                got = sim._demand_choices(universe, tables, paths, agents, shares)
                want, quantity = _frozen_demand_choices(universe, frozen_tables, menus, shares)
                assert got.tobytes() == want.tobytes()
                rows = menus[:, k] == index
                on = rows & (quantity[:, k] @ op == ow)
                on_line += int(on.sum())
                assert np.all(got[on, k] == table.position[0])
        assert on_line > 0


class TestBinaryDgps:
    def test_path_probabilities_compose_marginals(self):
        """Empirical path frequencies converge to the product of published
        per-menu marginals inside a 1/sqrt(N) envelope."""
        dgp = DgpSpec("binary3")
        marg = BINARY_MARGINALS["binary3"]
        first = {j: marg[2 * (j - 1)] for j in (1, 2, 3)}
        for n in (100, 1000, 10000):
            panel, uni = simulate(dgp, n, seed=4)
            rho = estimate_rho(panel, uni)
            worst = 0.0
            for path in rho.observed_paths:
                order = uni.choice_paths(path)
                arr = np.asarray(rho.probs[path], float)
                for cp, freq in zip(order, arr):
                    target = 1.0
                    for j, i in zip(path, cp):
                        target *= first[j] if i == 1 else 1 - first[j]
                    worst = max(worst, abs(freq - target))
            assert worst < 4.0 / np.sqrt(n)

    def test_six_menu_paths(self):
        panel, uni = simulate(DgpSpec("binary1"), 5, seed=5)
        rho = estimate_rho(panel, uni)
        assert sorted(rho.observed_paths) == sorted(itertools.permutations((1, 2, 3)))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            simulate(DgpSpec("nonsense"), 5)


class TestExperiment:
    def test_deterministic_across_thread_counts(self):
        dgps = [DgpSpec("binary3")]
        r1 = run_experiment(dgps, [15], sims=6, reps=49, seed=9, n_jobs=1)
        r2 = run_experiment(dgps, [15], sims=6, reps=49, seed=9, n_jobs=3)
        assert r1.entries[0]["rejection_rate"] == r2.entries[0]["rejection_rate"]

    def test_report_formats(self):
        report = run_experiment([DgpSpec("binary3")], [10], sims=3, reps=19, seed=0)
        text = report.to_text()
        csv = report.to_csv()
        assert "rejection_rate" in csv.splitlines()[0]
        assert "binary3" in text
        rate = report.entries[0]["rejection_rate"]
        assert 0.0 <= rate <= 1.0

    def test_entries_carry_their_monte_carlo_error(self):
        """Each entry counts its rejections and gives the binomial standard
        error of its rate; the table and the CSV show both, with the cell's
        grown and full re-solves."""
        report = run_experiment([DgpSpec("binary1"), DgpSpec("binary3")], [10, 40], sims=7,
                                reps=19, seed=3)
        rates = set()
        for e in report.entries:
            assert e["rejections"] == round(e["rejection_rate"] * e["sims"])
            rate = e["rejections"] / e["sims"]
            assert e["rejection_rate"] == rate
            assert e["standard_error"] == pytest.approx(np.sqrt(rate * (1 - rate) / 7), abs=1e-15)
            rates.add(rate)
        assert len(rates) > 1 and any(0 < rate < 1 for rate in rates)
        header, *rows = report.to_csv().splitlines()
        columns = header.split(",")
        for e, row in zip(report.entries, rows):
            values = dict(zip(columns, row.split(",")))
            assert int(values["rejections"]) == e["rejections"]
            assert float(values["standard_error"]) == pytest.approx(e["standard_error"], abs=1e-6)
            assert int(values["working_set_grown"]) == e["working_set_grown"]
            assert int(values["working_set_full_solves"]) == e["working_set_full_solves"]
        text_header, *text_rows = report.to_text().splitlines()
        assert text_header.split()[4:8] == ["rejections", "reject_rate", "std_error", "grown"]
        for e, row in zip(report.entries, text_rows):
            fields = row.split()
            assert int(fields[4]) == e["rejections"]
            assert float(fields[6]) == pytest.approx(e["standard_error"], abs=1e-4)


class TestCatalogStructure:
    """A catalog generator's universe, budgets and type matrix are built
    once per kind and process and shared, read-only, by every caller."""

    @pytest.mark.parametrize("kind", ["cobb-douglas-walk", "cobb-douglas-gaussian-copula",
                                      "binary1", "binary3"])
    def test_shared_and_equal_to_a_fresh_build(self, kind):
        dgp = DgpSpec(kind)
        universe, budgets = build_universe(dgp)
        A = type_matrix_for(dgp, universe)
        # params shape the draws only, so they share the structure too
        assert build_universe(DgpSpec(kind, {"persistence": 0.5}))[0] is universe
        assert type_matrix_for(DgpSpec(kind), universe) is A
        assert A.range_basis is type_matrix_for(dgp, universe).range_basis
        assert not A.matrix.flags.writeable and not A.range_basis.flags.writeable
        tables = sim._catalog_structure(kind)[4]
        if tables is not None:
            for by_budget in tables.values():
                for cuts in by_budget.values():
                    arrays = (cuts.position, cuts.prices, cuts.cuts, cuts.rising,
                              *(p for p, _ in cuts.others))
                    assert not any(array.flags.writeable for array in arrays)
        if kind.startswith("cobb"):
            patches = {t: compute_patches(budgets[t])[0] for t in universe.periods}
        else:
            patches = None
            assert universe == catalog.binary_universe(("l1", "l2", "l3"), (1, 2, 3))
        statics = [static_type_matrix(universe, t, patches) for t in universe.periods]
        fresh = kron_dynamic(statics, observed_menu_paths(dgp, universe), universe)
        assert fresh.matrix.tobytes() == A.matrix.tobytes()
        assert fresh.row_labels == A.row_labels and fresh.col_labels == A.col_labels

    def test_experiments_build_no_structure(self, monkeypatch):
        import drumtest.simulate as sim
        dgps = [DgpSpec("binary3"), DgpSpec("cobb-douglas-walk")]
        run_experiment(dgps, [10], sims=1, reps=19, seed=1)
        built = []
        for name in ("kron_dynamic", "static_type_matrix", "demand_universe"):
            monkeypatch.setattr(sim, name, lambda *args, name=name, **kwargs: built.append(name))
        monkeypatch.setattr(catalog, "binary_universe", lambda *args: built.append("binary"))
        report = run_experiment(dgps, [10], sims=2, reps=19, seed=2)
        assert built == [] and len(report.entries) == 2


class TestPublishedMarginals:
    def test_vectors_match_published_fractions(self):
        assert np.allclose(BINARY_MARGINALS["binary1"],
                           [1 / 5, 4 / 5, 4 / 5, 1 / 5, 1 / 5, 4 / 5], atol=0)
        assert np.allclose(BINARY_MARGINALS["binary2"],
                           [1 / 5, 4 / 5, 1 / 2, 1 / 2, 1 / 5, 4 / 5], atol=0)
        assert np.allclose(BINARY_MARGINALS["binary3"],
                           [1 / 4, 3 / 4, 2 / 4, 2 / 4, 1 / 4, 3 / 4], atol=0)

    def test_triangle_values_match_published(self):
        """The static facet rows evaluate on the three marginal vectors to the
        published value patterns."""
        from drumtest import catalog as cat
        uni = cat.binary_universe(("l1", "l2", "l3"), (1,))
        from drumtest.representations import catalog_H
        H = np.asarray(catalog_H("binary", uni, 1).rows, float)
        v1 = H @ BINARY_MARGINALS["binary1"]
        v2 = H @ BINARY_MARGINALS["binary2"]
        v3 = H @ BINARY_MARGINALS["binary3"]
        assert np.allclose(sorted(v1), sorted([-0.4, 1.4, 1.4, -0.4, -0.4, 1.4]), atol=1e-12)
        assert np.allclose(sorted(v2), sorted([-0.1, 1.1, 1.1, -0.1, -0.1, 1.1]), atol=1e-12)
        assert np.allclose(sorted(v3), sorted([0, 1, 1, 0, 0, 1]), atol=1e-12)
