"""The README's python blocks run, in order, and the package root exports
what its quick tour imports."""

import re
import types
from pathlib import Path

import braidfloer
from braidfloer import pipeline

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["result"].betti.as_dict() == {2: 1, 3: 1}
    assert namespace["permuted_cz_index"](namespace["path"]).value == 0.0


def test_package_root_exports_the_quick_tour_names():
    public = {name for name, value in vars(braidfloer).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == {
        "braid_floer_homology", "cyclic_spec", "forcing_report", "word_spec",
        "left_normal_form", "twist_padding", "word", "integrate_path", "permuted_cz_index",
    }
    assert braidfloer.__version__ == pipeline.TOOL_VERSION
