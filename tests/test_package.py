import re
import types
from pathlib import Path

import avqds

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_lists_no_submodule():
    """``__all__`` was built from ``dir()``, so ``from avqds import *`` bound
    the submodules ``ansatz``, ``engine``, ``statevector``, ..."""
    assert not [name for name in avqds.__all__ if isinstance(getattr(avqds, name), types.ModuleType)]


def test_all_lists_every_name_the_readme_quick_start_imports():
    block = re.search(r"from avqds import \(([^)]*)\)", README.read_text()).group(1)
    names = block.replace(",", " ").split()
    assert names and set(names) <= set(avqds.__all__)
