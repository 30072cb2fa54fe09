"""Bayesian strength comparison of Bell tests.

How many trials does an ideal Bell experiment need before a local realist
who started at 100:1 odds in their own favor must concede at 0.01?  This
package computes the per-trial evidence rates and trial counts for the GHZ,
chained (CHSH and beyond), and Hardy configurations, verifies by grid search
that the saturating local-realist strategies are the strongest ones, and
simulates sequential experiments to their stopping decisions.

Import names from the module that owns them: bellodds.bayes, .scenarios,
.adversary and .simulate, and bellodds.cli for the command line.
"""

__version__ = "0.1.0"
