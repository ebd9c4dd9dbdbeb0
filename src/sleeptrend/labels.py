"""Sleep state labels shared by annotations, training, and metrics."""

from enum import Enum

#: Seconds of signal covered by one epoch, and so by one label.
EPOCH_S = 60.0


class Label(str, Enum):
    """Per-epoch sleep state. Quiet sleep is the positive class."""

    QS = "QS"
    AS = "AS"
    EXCLUDED = "Excluded"

    def __str__(self) -> str:  # CSV friendliness
        return self.value


#: SST decision value for epochs with no usable channel.
GAP = "Gap"
