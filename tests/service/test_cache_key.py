"""Cache-key correctness: deterministic, and sensitive to every input knob."""

import pytest

from repro import ColorDynamic, Device, benchmark_circuit
from repro.devices import TransmonParams
from repro.service import cache_key, make_compiler

SEED = 2020
BENCH = "xeb(9,2)"


def _device(**kwargs) -> Device:
    return Device.grid(9, seed=SEED, **kwargs)


def _key(compiler=None, circuit=None) -> str:
    compiler = compiler or ColorDynamic(_device())
    circuit = circuit if circuit is not None else benchmark_circuit(BENCH, seed=SEED)
    return cache_key(compiler, circuit)


class TestDeterminism:
    def test_identical_construction_gives_identical_keys(self):
        assert _key() == _key()

    def test_key_is_hex_sha256(self):
        key = _key()
        assert len(key) == 64
        int(key, 16)

    def test_strategies_never_collide(self):
        device = _device()
        circuit = benchmark_circuit(BENCH, seed=SEED)
        keys = {
            strategy: cache_key(make_compiler(strategy, device), circuit)
            for strategy in (
                "Baseline N",
                "Baseline G",
                "Baseline U",
                "Baseline S",
                "ColorDynamic",
            )
        }
        assert len(set(keys.values())) == len(keys)


def _perturbed_coupling() -> ColorDynamic:
    device = _device()
    edge = device.edges()[0]
    device.couplings[edge] *= 1.01
    return ColorDynamic(device)


def _perturbed_anharmonicity() -> ColorDynamic:
    params = TransmonParams(anharmonicity=-0.21)
    return ColorDynamic(Device.grid(9, seed=SEED, base_params=params))


#: label -> compiler factory; every perturbation must change the cache key.
COMPILER_PERTURBATIONS = {
    "device_coupling": _perturbed_coupling,
    "device_anharmonicity": _perturbed_anharmonicity,
    "device_seed": lambda: ColorDynamic(Device.grid(9, seed=SEED + 1)),
    "device_tunable_couplers": lambda: ColorDynamic(
        _device().with_tunable_couplers(True)
    ),
    "crosstalk_distance": lambda: ColorDynamic(_device(), crosstalk_distance=2),
    "max_colors": lambda: ColorDynamic(_device(), max_colors=2),
    "conflict_threshold": lambda: ColorDynamic(_device(), conflict_threshold=2),
    "decomposition": lambda: ColorDynamic(_device(), decomposition="cz"),
    "dynamic": lambda: ColorDynamic(_device(), dynamic=False),
    "use_routing": lambda: ColorDynamic(_device(), use_routing=False),
}


class TestPerturbationSensitivity:
    """Property-style sample: any physics or flag change must change the key."""

    @pytest.mark.parametrize("label", sorted(COMPILER_PERTURBATIONS))
    def test_compiler_perturbation_changes_key(self, label):
        assert _key(compiler=COMPILER_PERTURBATIONS[label]()) != _key()

    def test_all_perturbations_pairwise_distinct(self):
        keys = {label: _key(compiler=make()) for label, make in COMPILER_PERTURBATIONS.items()}
        keys["baseline"] = _key()
        assert len(set(keys.values())) == len(keys)

    def test_circuit_seed_changes_key(self):
        assert _key(circuit=benchmark_circuit(BENCH, seed=SEED + 1)) != _key()

    def test_circuit_content_changes_key(self):
        circuit = benchmark_circuit(BENCH, seed=SEED)
        tweaked = circuit.copy()
        tweaked.rz(0.125, 0)
        assert _key(circuit=tweaked) != _key(circuit=circuit)

    def test_circuit_rotation_parameter_changes_key(self):
        base = benchmark_circuit(BENCH, seed=SEED).copy()
        tweaked = base.copy()
        base.rz(0.125, 0)
        tweaked.rz(0.250, 0)
        assert _key(circuit=base) != _key(circuit=tweaked)

    def test_toolchain_version_changes_key(self, monkeypatch):
        import repro

        baseline = _key()
        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        assert _key() != baseline

