"""Smoke tests for the example applications.

Each example is executed in-process (by importing its module and calling
``main`` with reduced parameters) so that documentation code stays working as
the library evolves.
"""

import importlib.util
import sys
from pathlib import Path


EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def load_example(name):
    """Import an example script as a module without running its __main__ block."""
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"examples_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestExamplesExist:
    def test_examples_directory_contains_required_scripts(self):
        names = {path.stem for path in EXAMPLES_DIR.glob("*.py")}
        assert "quickstart" in names
        assert len(names) >= 3


class TestExamplesRun:
    def test_quickstart(self, capsys):
        module = load_example("quickstart")
        module.main(num_tables=6, iterations=5, seed=1)
        output = capsys.readouterr().out
        assert "Pareto-optimal cost tradeoffs" in output
        assert "fastest plan" in output

    def test_cloud_cost_tradeoff(self, capsys):
        module = load_example("cloud_cost_tradeoff")
        module.main(budget=1e9, iterations=5, seed=1)
        output = capsys.readouterr().out
        assert "Pareto frontier" in output
        assert "Selected plan" in output

    def test_cloud_cost_tradeoff_budget_too_small(self, capsys):
        module = load_example("cloud_cost_tradeoff")
        module.main(budget=1e-3, iterations=4, seed=1)
        output = capsys.readouterr().out
        assert "No plan fits the budget" in output

    def test_approximate_query_processing(self, capsys):
        module = load_example("approximate_query_processing")
        module.main(iterations=6, seed=2)
        output = capsys.readouterr().out
        assert "precision loss" in output
        assert "Plan selection" in output

    def test_large_query_scaling(self, capsys):
        module = load_example("large_query_scaling")
        # Keep the per-query budget tiny; the point is that every size yields plans.
        original_sizes = (10, 25, 50, 75, 100)
        module.main(budget=0.1, seed=1, dp_tables=(6,))
        output = capsys.readouterr().out
        for size in original_sizes:
            assert str(size) in output
        # The vectorized-DP section promised in the module docstring.
        assert "DP reference scaling" in output
        assert "DP(Infinity)" in output
        assert "arena engine" in output

    def test_large_query_scaling_dp_section_optional(self, capsys):
        module = load_example("large_query_scaling")
        module.main(budget=0.05, seed=1, dp_tables=())
        output = capsys.readouterr().out
        assert "DP reference scaling" not in output

    def test_interactive_frontier(self, capsys):
        module = load_example("interactive_frontier")
        module.main(seed=3)
        output = capsys.readouterr().out
        assert "tradeoffs available" in output
        assert "x = time" in output
        # The archive summary promised in the module docstring.
        assert "candidate archive:" in output
        assert "non-dominated of" in output

    def test_interactive_frontier_render_helper(self):
        module = load_example("interactive_frontier")
        rendering = module.render_frontier([(1.0, 10.0), (5.0, 2.0)], width=20, height=5)
        assert rendering.count("*") == 2
        assert module.render_frontier([]) == "(no plans yet)"

    def test_compare_algorithms(self, capsys):
        module = load_example("compare_algorithms")
        module.main(num_tables=5, budget=0.15, seed=1)
        output = capsys.readouterr().out
        assert "Approximation error" in output
        assert "RMQ" in output
