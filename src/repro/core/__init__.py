"""The paper's new architecture: Fig. 9 stack + application facade."""

from repro.core.api import GroupCommunication
from repro.core.composed import ComposedNewArchitecture
from repro.core.new_stack import NewArchitectureStack, StackConfig, build_new_group

__all__ = [
    "ComposedNewArchitecture",
    "GroupCommunication",
    "NewArchitectureStack",
    "StackConfig",
    "build_new_group",
]
