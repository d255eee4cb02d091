"""Every name a package module imports is used in that module, no package
module reaches into another's private (``_``-prefixed) names, and the math
layers (``numerics``, ``model``, ``losses``, ``codebook``) import only the
package modules below them, every ``config.DEFAULTS`` key has a reader,
the sample rate and the frame length and hop are known to ``signal`` alone,
float32 is named only by ``model``'s parameter dtype and by
``checkpoint``'s on-disk format, synthesis runs on the calling thread:
``signal`` imports no ``threading`` and no module names ``synthesis_threads``,
in ``signal`` only the synthesis tables and the peak-bound grid take a
``sin`` or ``cos``, so no per-sample trigonometry comes back, and in
``model`` every sum goes through the two BLAS helpers, so no numpy reduction
over a short row comes back.

An import whose statement carries ``# noqa: F401`` is exempt from the first
check: those keep a function bound in a module that does not call it, so that
the benchmark in perfbench/ can rebind it there, and each name on such a line
must be one that the benchmark's binding table rebinds in that module. A name
listed in ``__all__`` counts as used.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vicspeech"


def _is_exempt(node: ast.stmt, lines: list[str]) -> bool:
    return any("# noqa: F401" in lines[i - 1] for i in range(node.lineno, node.end_lineno + 1))


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if _is_exempt(node, lines):
                continue
            for alias in node.names:  # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = ("from typing import Optional, Sequence\n"
              "from os import sep  # noqa: F401\n"
              "import numpy as np\n"
              "__all__ = ['f']\n"
              "def f(x: Sequence) -> None:\n"
              "    return np.asarray(x)\n")
    assert _unused_imports(source) == ["line 1: Optional"]


def _unbound_exemptions(source: str, module: str, functions) -> list[str]:
    """Names imported by a ``# noqa: F401`` statement of package module
    `module` that the binding table `functions` (perfbench/spans.py's
    ``FUNCTIONS``) does not rebind in `module`, from the module it is
    imported from."""
    bound = {(site, mod, attr) for _, mod, attr, sites in functions for site in sites}
    lines = source.splitlines()
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and _is_exempt(node, lines):
            origin = getattr(node, "module", None) or ""
            for alias in node.names:
                if (module, origin.removeprefix("vicspeech."), alias.name) not in bound:
                    found.append(f"line {node.lineno}: {alias.name}")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_exempt_import_is_rebound_by_the_benchmark(path, spans):
    assert _unbound_exemptions(path.read_text(encoding="utf-8"), path.stem,
                               spans.FUNCTIONS) == []


def test_an_unbound_exemption_is_found(spans):
    source = ("from .losses import covariance, invariance, variance  # noqa: F401\n"
              "from .losses import total_loss  # noqa: F401\n"
              "from .signal import synth_noise  # noqa: F401\n"
              "import os  # noqa: F401\n"
              "from .model import forward\n")
    assert _unbound_exemptions(source, "trainer", spans.FUNCTIONS) == [
        "line 2: total_loss", "line 4: os"]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_reads(source: str) -> list[str]:
    """Private names imported from a package module, or read as
    ``module._name`` off a package module the source imports."""
    tree = ast.parse(source)
    modules: set[str] = set()  # local names bound to package modules
    found: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname for alias in node.names
                           if alias.asname and alias.name.startswith("vicspeech."))
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "vicspeech"):
            for alias in node.names:
                if _is_private(alias.name):
                    found.append((node.lineno, alias.name))
                elif node.module is None or node.module == "vicspeech":  # `from . import m`
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _is_private(node.attr)):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return [f"line {line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_of_another_module_is_read(path):
    assert _private_reads(path.read_text(encoding="utf-8")) == []


def test_a_private_read_is_found():
    source = ("from . import codebook as cb_mod, signal\n"
              "from .model import _layer_norm, forward\n"
              "from numpy import _core\n"
              "import vicspeech.losses as losses_mod\n"
              "from . import __version__\n"
              "x = cb_mod._grid + signal.NOISE_KINDS + forward.__name__\n"
              "y = losses_mod._private(self._cache)\n"
              "def _local():\n"
              "    return signal._PEAK\n")
    assert _private_reads(source) == ["line 2: _layer_norm", "line 6: cb_mod._grid",
                                      "line 7: losses_mod._private", "line 9: signal._PEAK"]


# the package modules that each math-layer module may import
LAYERS = {
    "numerics": set(),
    "model": {"numerics"},
    "losses": {"model", "numerics"},
    "codebook": {"numerics"},
}
MODULES = {p.stem for p in PACKAGE.glob("*.py")}


def _package_imports(source: str) -> set[str]:
    """Package modules the source imports, in any of the forms ``from .m
    import x``, ``from . import m``, ``from vicspeech.m import x``, ``from
    vicspeech import m`` and ``import vicspeech.m``, at any depth."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "vicspeech"):
            parts = (node.module or "").split(".")[0 if node.level else 1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "vicspeech":
                    found.add(parts[1] if len(parts) > 1 else "__init__")
    return found & MODULES


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_math_layers_import_only_the_layers_below(module):
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert _package_imports(source) - LAYERS[module] == set()


def test_a_package_import_is_found():
    source = ("from . import codebook as cb_mod, signal\n"
              "from .numerics import Matrix\n"
              "from vicspeech.model import forward\n"
              "from vicspeech import losses\n"
              "import vicspeech.trainer as tr\n"
              "import vicspeech\n"
              "from . import __version__\n"
              "import numpy as np\n"
              "from numpy import signal\n"
              "def f():\n"
              "    from .config import load_config\n")
    assert _package_imports(source) == {"codebook", "signal", "numerics", "model", "losses",
                                        "trainer", "__init__", "config"}


def _defaults_keys(source: str) -> list[str]:
    """The keys of the dict literal that `source` assigns to ``DEFAULTS: ...``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "DEFAULTS":
            return [key.value for key in node.value.keys]
    raise AssertionError("no DEFAULTS assignment")


def _string_subscripts(source: str, name: str) -> set[str]:
    """The strings `source` subscripts the variable `name` with, as in ``name["key"]``."""
    return {node.slice.value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == name and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)}


def _unread_keys(config_source: str, cli_source: str) -> list[str]:
    """``DEFAULTS`` keys that neither config.py reads as ``v["key"]`` nor
    cli.py as ``cfg["key"]``."""
    read = _string_subscripts(config_source, "v") | _string_subscripts(cli_source, "cfg")
    return [key for key in _defaults_keys(config_source) if key not in read]


def test_every_config_key_has_a_reader():
    assert _unread_keys((PACKAGE / "config.py").read_text(encoding="utf-8"),
                        (PACKAGE / "cli.py").read_text(encoding="utf-8")) == []


def test_an_unread_config_key_is_found():
    config = ('DEFAULTS: dict = {"k": (16, ">= 2"), "n_filters": (40, None), "steps": (1, None)}\n'
              "def build(v, cfg):\n"
              '    return v["steps"], cfg["n_filters"], v[key]\n')
    cli = 'def cmd(cfg, v):\n    return cfg["k"], v["n_filters"]\n'
    assert _unread_keys(config, cli) == ["n_filters"]


_ANY_USE = (ast.arg, ast.Name, ast.Attribute, ast.keyword, ast.alias, ast.Constant)


def _named(source: str, wanted: set[str], kinds: tuple = _ANY_USE) -> list[str]:
    """Where `source` names one of `wanted` as one of the node `kinds`: by
    default a name, attribute, parameter, keyword, import or string."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, kinds):
            names_here = {getattr(node, field, None) for field in ("arg", "id", "attr", "name",
                                                                    "asname", "value")}
            found += [(node.lineno, name) for name in wanted & names_here]
    return [f"line {line}: {name}" for line, name in sorted(found)]


def _mentions(source: str, module: str, parameters: set[str], names: set[str]) -> list[str]:
    """Where package module `module` names one of `names`: in signal.py a
    parameter in `parameters`; elsewhere any of `names` as a name,
    attribute, parameter, keyword, import or string."""
    if module == "signal":
        return _named(source, parameters, (ast.arg,))
    return _named(source, names)


def _rate_mentions(source: str, module: str) -> list[str]:
    """Where package module `module` names the sample rate: in signal.py a
    ``sample_rate`` parameter; elsewhere any ``sample_rate`` or
    ``SAMPLE_RATE`` name, attribute, parameter, keyword, import or string."""
    return _mentions(source, module, {"sample_rate"}, {"sample_rate", "SAMPLE_RATE"})


def _frame_mentions(source: str, module: str) -> list[str]:
    """Where package module `module` names the frame length or the hop: in
    signal.py a ``frame_len`` or ``hop`` parameter; elsewhere any
    ``frame_len``, ``FRAME_LEN``, ``hop`` or ``HOP`` name, attribute,
    parameter, keyword, import or string."""
    return _mentions(source, module, {"frame_len", "hop"},
                     {"frame_len", "FRAME_LEN", "hop", "HOP"})


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_the_sample_rate_is_known_to_signal_alone(path):
    assert _rate_mentions(path.read_text(encoding="utf-8"), path.stem) == []


def test_a_rate_mention_is_found():
    outside = ("from .signal import SAMPLE_RATE as RATE, synth_noise\n"
               "def f(utt, cfg, sample_rate):\n"
               "    noise = synth_noise('music', 0, 9, sample_rate=RATE)\n"
               "    return noise, utt.wave.sample_rate, cfg['sample_rate'], 'a sample_rate'\n")
    assert _rate_mentions(outside, "trainer") == [
        "line 1: SAMPLE_RATE", "line 2: sample_rate", "line 3: sample_rate",
        "line 4: sample_rate", "line 4: sample_rate"]
    inside = ("SAMPLE_RATE = 16000\n"
              "def synth_noise(kind, seed, n, sample_rate=SAMPLE_RATE):\n"
              "    return n / SAMPLE_RATE, 'sample_rate'\n"
              "def _music(rng, n, *, sample_rate):\n"
              "    return rng\n")
    assert _rate_mentions(inside, "signal") == ["line 2: sample_rate", "line 4: sample_rate"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_the_frame_geometry_is_known_to_signal_alone(path):
    assert _frame_mentions(path.read_text(encoding="utf-8"), path.stem) == []


def test_a_frame_mention_is_found():
    outside = ("from .signal import FRAME_LEN as N, HOP, extract_features\n"
               "def f(wav, cfg, frame_len):\n"
               "    feats = extract_features(wav, frame_len=N, hop=signal.HOP)\n"
               "    return feats, cfg['hop'], 'a hop'\n")
    assert _frame_mentions(outside, "trainer") == [
        "line 1: FRAME_LEN", "line 1: HOP", "line 2: frame_len", "line 3: HOP",
        "line 3: frame_len", "line 3: hop", "line 4: hop"]
    inside = ("FRAME_LEN, HOP = 400, 160\n"
              "def extract_features(wav, frame_len=FRAME_LEN, *, hop=HOP):\n"
              "    return wav[:FRAME_LEN:HOP], 'hop'\n"
              "def frame_labels(utt, hop):\n"
              "    return utt\n")
    assert _frame_mentions(inside, "signal") == [
        "line 2: frame_len", "line 2: hop", "line 4: hop"]


def _float32_mentions(source: str) -> list[str]:
    """Where `source` names float32: ``float32`` as a name, attribute,
    parameter, keyword or import, or the strings ``"float32"`` and ``"<f4"``."""
    return _named(source, {"float32", "<f4"})


# the modules that may name float32, and how often (None: any number of times)
FLOAT32_NAMERS = {"model": 1, "checkpoint": None}  # the parameter dtype; the file format


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_the_parameter_dtype_is_named_in_one_place(path):
    found = _float32_mentions(path.read_text(encoding="utf-8"))
    if path.stem not in FLOAT32_NAMERS:
        assert found == []
    elif FLOAT32_NAMERS[path.stem] is not None:
        assert len(found) == FLOAT32_NAMERS[path.stem], found


def test_a_float32_mention_is_found():
    source = ("import numpy as np\n"
              "from numpy import float32 as f32\n"
              "def f(x, float32=None):\n"
              "    '''float32 in prose is not a mention'''\n"
              "    y = x.astype(np.float32) + np.zeros(3, dtype='float32')\n"
              "    return y.view('<f4'), np.dtype('f8'), 'float32 in text'\n")
    assert _float32_mentions(source) == [
        "line 2: float32", "line 3: float32", "line 5: float32", "line 5: float32",
        "line 6: <f4"]


def _thread_mentions(source: str, module: str) -> list[str]:
    """Where package module `module` defines or names ``synthesis_threads``
    (as a name, attribute, parameter, keyword, import or string), and, in
    signal.py, where it imports from ``threading``."""
    found = _named(source, {"synthesis_threads"}, _ANY_USE + (ast.FunctionDef,))
    if module == "signal":
        tree = ast.parse(source)
        imported = [(node.lineno, alias.name) for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names]
        imported += [(node.lineno, node.module) for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.level == 0]
        found += [f"line {line}: threading" for line, name in imported
                  if name.split(".")[0] == "threading"]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_synthesis_runs_on_the_calling_thread(path):
    assert _thread_mentions(path.read_text(encoding="utf-8"), path.stem) == []


def test_a_thread_count_call_is_found():
    """A ``synthesis_threads()`` call is found in every function, the
    renderer and the echo included."""
    source = ("from . import signal\n"
              "WIDTH = synthesis_threads()\n"
              "def _echo():\n"
              "    print(signal.synthesis_threads())\n"
              "def _render(pieces):\n"
              "    return synthesis_threads() < 2\n")
    want = ["line 2: synthesis_threads", "line 4: synthesis_threads", "line 6: synthesis_threads"]
    assert _thread_mentions(source, "cli") == want
    assert _thread_mentions(source, "signal") == want


def test_a_synthesis_thread_mention_is_found():
    source = ("import threading as th\n"
              "from threading import Thread\n"
              "from .signal import synthesis_threads\n"
              "__all__ = ['synthesis_threads']\n"
              "def synthesis_threads():\n"
              "    return signal.synthesis_threads() + th.active_count()\n"
              "'''threading and synthesis_threads in prose are not mentions'''\n")
    assert _thread_mentions(source, "cli") == [
        "line 3: synthesis_threads", "line 4: synthesis_threads", "line 5: synthesis_threads",
        "line 6: synthesis_threads"]
    assert _thread_mentions(source, "signal") == [
        "line 3: synthesis_threads", "line 4: synthesis_threads", "line 5: synthesis_threads",
        "line 6: synthesis_threads", "line 1: threading", "line 2: threading"]


# the functions of signal.py that build the synthesis tables, and its
# peak-bound grid constant: the only places there that take a sin or cos
TRIG_BUILDERS = {"_tables", "_phasors", "_fade_ramp"}
TRIG_CONSTANTS = {"_GRID"}


def _trig_uses(source: str) -> list[str]:
    """Where `source` names ``sin`` or ``cos`` (``np.sin``, ``math.cos``, a
    bare ``sin``, called or not), outside the top-level functions in
    `TRIG_BUILDERS` and the top-level assignments to `TRIG_CONSTANTS`."""
    found = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name in TRIG_BUILDERS:
            continue
        if isinstance(stmt, ast.Assign) and all(getattr(target, "id", None) in TRIG_CONSTANTS
                                                 for target in stmt.targets):
            continue
        for node in ast.walk(stmt):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name) else None)
            if name in ("sin", "cos"):
                found.append((node.lineno, name))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_signal_takes_sin_and_cos_only_in_its_tables():
    assert _trig_uses((PACKAGE / "signal.py").read_text(encoding="utf-8")) == []


def test_a_trig_use_is_found():
    source = ("import math\n"
              "import numpy as np\n"
              "from math import sin\n"
              "_GRID = np.sin(np.arange(4))\n"
              "_OTHER = _GRID + np.cos(np.arange(4))\n"
              "def _tables(w):\n"
              "    return np.sin(w), np.cos(w)\n"
              "def _music(w, t):\n"
              "    return np.sin(w * t) + math.cos(t) + sin(t)\n"
              "class _Chord:\n"
              "    def render(self, out):\n"
              "        out[:] = np.sin(self.t)\n"
              "        def _tables():\n"
              "            return list(map(np.cos, self.t))\n"
              "'sin and cos in prose are not uses'\n")
    assert _trig_uses(source) == [
        "line 5: cos", "line 9: cos", "line 9: sin", "line 9: sin", "line 12: sin",
        "line 14: cos"]


# the functions of model.py that take every sum the encoder takes
SUMMERS = {"_row_sums", "_col_sums"}


def _reductions(source: str) -> list[str]:
    """Where `source` names ``sum``, ``mean``, ``var`` or ``std`` as an
    attribute (a method such as ``x.sum`` or a function such as
    ``np.mean``, called or not), outside the top-level functions in
    `SUMMERS`."""
    found = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name in SUMMERS:
            continue
        found += [(node.lineno, node.attr) for node in ast.walk(stmt)
                  if isinstance(node, ast.Attribute) and node.attr in ("sum", "mean", "var", "std")]
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_model_sums_only_in_its_blas_helpers():
    assert _reductions((PACKAGE / "model.py").read_text(encoding="utf-8")) == []


def test_a_reduction_is_found():
    source = ("import numpy as np\n"
              "def _row_sums(x):\n"
              "    return x.sum(axis=1, keepdims=True)\n"
              "def _layer_norm(x):\n"
              "    return x.mean(axis=1), np.var(x, axis=1), x.std()\n"
              "class EncoderState:\n"
              "    def n_params(self):\n"
              "        return sum(p.size for p in self.params) + np.sum(self.v)\n"
              "        def _col_sums(x):\n"
              "            return x.sum(axis=0)\n"
              "TOTAL = np.add.reduce, 'sum and mean in prose are not reductions'\n"
              "f = np.mean\n")
    assert _reductions(source) == [
        "line 5: mean", "line 5: std", "line 5: var", "line 8: sum", "line 10: sum",
        "line 12: mean"]
