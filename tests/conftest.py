"""Shared pytest set-up.

When a hypothesis test fails, hypothesis's pytest plugin imports
``hypothesis.extra._patching`` to suggest a patch, and that module's libcst
import raises a DeprecationWarning.  ``pyproject.toml`` turns such warnings
into errors, which would end the session with an INTERNALERROR and hide the
falsifying example, so the module is imported here once with that warning
ignored.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is optional; without it the plugin skips patches
        pass
