"""Exception types shared across the package."""


class InputError(ValueError):
    """Invalid argument or configuration value. CLI maps this to exit code 2."""


class ResourceError(RuntimeError):
    """Register or plan past a resource limit. CLI maps this to exit code 3."""
