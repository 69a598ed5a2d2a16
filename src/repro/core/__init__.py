"""The paper's new architecture: Fig. 9 stack + application facade."""
