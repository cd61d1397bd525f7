"""Every exception class is named outside errors.py, so none is dead."""

import inspect
import re
from pathlib import Path

from teelab import errors


def test_every_error_is_named_in_another_module():
    package = Path(errors.__file__).parent
    others = "\n".join(path.read_text() for path in package.glob("*.py") if path.name != "errors.py")
    classes = [
        cls for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.TeeLabError) and cls.__module__ == errors.__name__
    ]
    assert len(classes) > 1
    unused = [cls.__name__ for cls in classes if not re.search(rf"\b{cls.__name__}\b", others)]
    assert not unused, f"exceptions named nowhere outside errors.py: {unused}"
