"""Exception types shared across the toolkit."""


class ParameterError(ValueError):
    """A constructor or operation received an out-of-range parameter."""


class InputError(ValueError):
    """A data input (stream, waveform, block) has an inconsistent shape."""


class CapacityError(ParameterError):
    """The requested object is too large for the chosen implementation path
    (a parameter choice, so the CLI reports it like any other)."""


class ConfigError(ValueError):
    """An experiment config document failed validation.

    `json_path` points at the offending entry, e.g. "scheme.q".
    """

    def __init__(self, json_path, message):
        super().__init__(f"{json_path}: {message}")
        self.json_path = json_path
        self.message = message
