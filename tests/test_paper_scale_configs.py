"""Consistency checks on the paper-scale parameter sets (without running them).

`scale="paper"` runs take minutes; these tests make sure the configurations
are at least well-formed and match the paper's Table 1 / figure captions, so
a long run cannot die on a typo.
"""

from repro.circuits.benchmarks import BENCHMARKS
from repro.compiler.driver import rsl_size_for, virtual_size_for
from repro.experiments import fig12, fig13, fig14, fig15, fig16, loss, table2, table3


class TestTableConfigs:
    def test_table2_paper_settings(self):
        settings = dict(
            (rate, (qubits, cap, node)) for rate, qubits, cap, node in table2.SCALE_SETTINGS["paper"]
        )
        assert 0.90 in settings and 0.75 in settings
        qubits_90, cap_90, node_90 = settings[0.90]
        qubits_75, cap_75, node_75 = settings[0.75]
        assert cap_90 == cap_75 == 10**6  # the paper's cap
        assert node_90 == 12 and node_75 == 24  # Table 1's RSL scaling
        assert set(qubits_90) <= {4, 9, 25}
        assert set(qubits_75) <= {4, 25, 64, 100}

    def test_table1_rsl_sizes_reproduced(self):
        """Our sizing helpers reproduce Table 1's RSL column exactly."""
        expected = {
            (4, 0.90): 24,
            (9, 0.90): 36,
            (25, 0.90): 60,
            (4, 0.75): 48,
            (25, 0.75): 120,
            (64, 0.75): 192,
            (100, 0.75): 240,
        }
        for (qubits, rate), rsl in expected.items():
            assert rsl_size_for(qubits, rate) == rsl

    def test_table1_virtual_sizes_reproduced(self):
        expected = {4: 2, 9: 3, 25: 5, 64: 8, 100: 10}
        for qubits, virtual in expected.items():
            assert virtual_size_for(qubits) == virtual

    def test_table3_paper_settings(self):
        assert table3.SCALE_QUBITS["paper"] == (25, 64, 100)
        assert table3.SCALE_REFRESH["paper"] == 50  # "refresh rate of 50"
        assert table3.SCALE_BUDGET["paper"] == 32 * 2**30  # 32 GB


class TestFigureConfigs:
    def test_fig12_paper_sweeps(self):
        families, qubits, virtual = fig12.SCALE_PROGRAM["paper"]
        assert set(families) == set(BENCHMARKS)
        assert qubits == 36 and virtual == 6  # "36-qubit benchmarks"
        resource, rsls, rates, rsl_a, rsl_c, base = fig12.SCALE_SWEEPS["paper"]
        assert resource == (4, 5, 6, 7)  # Fig. 12(a)'s x-axis
        assert rsl_a == rsl_c == 84  # "hardware size being 84x84"
        assert base == 0.75
        assert min(rates) == 0.66 and max(rates) == 0.78  # Fig. 12(c)

    def test_fig13_paper_sweeps(self):
        rsl_sizes, rates, _trials = fig13.SCALE_13A["paper"]
        assert max(rsl_sizes) >= 240  # Fig. 13(a) sweeps to N=300
        assert set(rates) == {0.66, 0.72, 0.78}
        rsl, node, modules, mi_ratios, rate, _t = fig13.SCALE_13C["paper"]
        assert modules == (4, 9, 16)
        assert mi_ratios == (2, 4, 7, 14, 19)  # Fig. 13(c)'s MI sweep

    def test_fig14_paper_sweeps(self):
        families, qubit_counts, rsl, rate = fig14.SCALE_14A["paper"]
        assert rsl == 96  # "RSL size is 96x96 for (a)"
        assert rate == 0.75
        rsl_sizes, node, modules, mi, rate_b, _t = fig14.SCALE_14B["paper"]
        assert node == 24  # "average node size chosen as 24x24"
        assert mi == 7.0  # "MI ratio is chosen as 7"
        assert modules == (1, 4, 9, 16)

    def test_fig15_paper_sweeps(self):
        _families, _qubits, width = fig15.SCALE_15A["paper"]
        assert width == 4  # "virtual hardware size being 4x4 for (a)"
        _families_b, qubits_b, widths = fig15.SCALE_15B["paper"]
        assert qubits_b == 36
        assert min(widths) == 3 and max(widths) == 10  # Fig. 15(b) x-axis

    def test_fig16_paper_sweeps(self):
        rsl, nodes, rates, _trials = fig16.SCALE_SETTINGS["paper"]
        assert rsl == 200  # "RSL size being 200x200"
        assert set(rates) == {0.66, 0.69, 0.72, 0.75, 0.78}
        assert max(nodes) >= 50

    def test_loss_paper_sweeps(self):
        families, qubits, virtual, rsl, rates = loss.SCALE_SETTINGS["paper"]
        assert set(families) == set(BENCHMARKS)
        assert rsl >= virtual * 12
        assert rates[0] == 0.0  # always include the lossless anchor
