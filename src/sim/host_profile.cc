#include "src/sim/host_profile.hh"

#include <cctype>

#include "src/sim/engine.hh"

namespace gmoms
{

HostProfile::HostProfile()
    : buckets_{Bucket{"engine"}}, last_(stamp()), start_stamp_(last_),
      start_wall_(Clock::now())
{
}

double
HostProfile::nsPerStamp() const
{
    const double wall_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - start_wall_)
            .count());
    const std::uint64_t stamps = stamp() - start_stamp_;
    return stamps > 0 ? wall_ns / static_cast<double>(stamps) : 0.0;
}

std::vector<HostProfile::Row>
HostProfile::rows() const
{
    const double scale = nsPerStamp();
    std::vector<Row> out;
    out.reserve(buckets_.size());
    for (const Bucket& b : buckets_)
        out.push_back(Row{b.kind, b.ticks,
                          static_cast<std::uint64_t>(
                              static_cast<double>(b.stamps) * scale)});
    return out;
}

std::uint64_t
HostProfile::totalNs() const
{
    std::uint64_t total = 0;
    for (const Row& r : rows())
        total += r.ns;
    return total;
}

std::string
HostProfile::kindOf(const std::string& name)
{
    std::size_t begin = 0;
    // Cluster board prefix: "b<digits>."
    if (name.size() > 2 && name[0] == 'b' &&
        std::isdigit(static_cast<unsigned char>(name[1]))) {
        std::size_t i = 1;
        while (i < name.size() &&
               std::isdigit(static_cast<unsigned char>(name[i])))
            ++i;
        if (i < name.size() && name[i] == '.')
            begin = i + 1;
    }
    std::size_t end = name.size();
    while (end > begin &&
           std::isdigit(static_cast<unsigned char>(name[end - 1])))
        --end;
    return name.substr(begin, end - begin);
}

void
HostProfile::bind(const std::vector<Component*>& components)
{
    bucket_of_.resize(components.size());
    for (std::size_t i = 0; i < components.size(); ++i) {
        const std::string kind = kindOf(components[i]->name());
        std::size_t b = 1;
        while (b < buckets_.size() && buckets_[b].kind != kind)
            ++b;
        if (b == buckets_.size())
            buckets_.push_back(Bucket{kind});
        bucket_of_[i] = b;
    }
}

} // namespace gmoms
