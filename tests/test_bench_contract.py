"""The benchmark in perfbench/ wraps package functions by rebinding them in
the globals of every module that calls them. Its binding table must match
the package, or the benchmark refuses to start. The `spans` fixture (see
conftest.py) loads that table. The benchmark also counts frames with its own
copy of the frame length and hop, which must be the package's; the
`workloads` fixture loads that copy."""

import importlib
import inspect

from vicspeech import signal


def _module(name):
    return importlib.import_module(f"vicspeech.{name}")


def test_every_function_is_bound_at_every_site(spans):
    for name, mod, attr, sites in spans.FUNCTIONS:
        fn = getattr(_module(mod), attr)
        assert callable(fn), name
        for site in sites:
            assert _module(site).__dict__.get(attr) is fn, f"{name} not bound in vicspeech.{site}"


def test_every_method_exists(spans):
    for name, mod, cls_name, attr in spans.METHODS:
        cls = getattr(_module(mod), cls_name)
        assert attr in cls.__dict__, name


def test_the_benchmark_frames_as_the_package_does(workloads):
    """`Inputs.frames` reports frames/s from the benchmark's FRAME_LEN and
    HOP: if they drifted from the package's, the count would be wrong
    without any error."""
    assert (workloads.FRAME_LEN, workloads.HOP) == (signal.FRAME_LEN, signal.HOP)


def test_the_arguments_the_benchmark_reads_are_where_it_reads_them():
    """`spans._note` reads some arguments of a traced call by position: the
    forward pass's `training` flag, the VIC sample size and the noise draw's
    kind, seed and length. Were one of them moved, traced calls would be
    misclassified without any error."""
    def params(mod, attr):
        return list(inspect.signature(getattr(_module(mod), attr)).parameters)

    assert params("model", "forward")[2] == "training"
    assert params("losses", "sample_frames")[2] == "n"
    assert params("signal", "synth_noise") == ["kind", "seed", "n_samples"]
