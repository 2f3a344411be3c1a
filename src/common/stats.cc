#include "common/stats.hh"

#include <cmath>

namespace abndp
{
namespace stats
{

double
Distribution::variance() const
{
    if (n < 2)
        return 0.0;
    double m = mean();
    double var = sumSq / n - m * m;
    return var > 0.0 ? var : 0.0;
}

double
Distribution::stddev() const
{
    return std::sqrt(variance());
}

} // namespace stats
} // namespace abndp
