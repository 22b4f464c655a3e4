#include "sim/recorder.h"

#include <ostream>

#include "util/csv.h"
#include "util/logging.h"

namespace nps {
namespace sim {

Recorder::Recorder(const Cluster &cluster, const Options &options)
    : cluster_(cluster), options_(options)
{
    if (options_.stride == 0)
        util::fatal("Recorder: zero stride");
    if (options_.servers) {
        server_power_.resize(cluster_.numServers());
        server_util_.resize(cluster_.numServers());
        server_pstate_.resize(cluster_.numServers());
    }
    if (options_.enclosures)
        enclosure_power_.resize(cluster_.numEnclosures());
}

void
Recorder::observe(size_t tick)
{
    // observe() fires before the current tick is evaluated; sample the
    // previous tick's state (skip tick 0, which has none).
    if (tick == 0 || (tick - 1) % options_.stride != 0)
        return;
    ticks_.push_back(tick - 1);

    if (options_.group) {
        const ClusterTick &ct = cluster_.lastTick();
        group_power_.push_back(ct.total_power);
        group_served_.push_back(ct.served_useful);
        group_demanded_.push_back(ct.demanded_useful);
    }
    if (options_.servers) {
        for (const auto &srv : cluster_.servers()) {
            server_power_[srv.id()].push_back(srv.lastPower());
            server_util_[srv.id()].push_back(srv.lastApparentUtil());
            bool off = srv.platformPower(tick - 1) ==
                       PlatformPower::Off;
            server_pstate_[srv.id()].push_back(
                off ? -1 : static_cast<int>(srv.pstate()));
        }
    }
    if (options_.enclosures) {
        for (const auto &enc : cluster_.enclosures()) {
            enclosure_power_[enc.id()].push_back(
                cluster_.lastEnclosurePower(enc.id()));
        }
    }
    if (faults_ || health_) {
        size_t active =
            faults_ ? faults_->schedule().activeCount(tick - 1) : 0;
        if (health_)
            active += health_->silentCount(tick - 1);
        active_faults_.push_back(active);
    }
}

const std::vector<double> &
Recorder::serverPower(ServerId id) const
{
    if (!options_.servers || id >= server_power_.size())
        util::panic("Recorder::serverPower(%u): not captured", id);
    return server_power_[id];
}

const std::vector<double> &
Recorder::serverUtil(ServerId id) const
{
    if (!options_.servers || id >= server_util_.size())
        util::panic("Recorder::serverUtil(%u): not captured", id);
    return server_util_[id];
}

const std::vector<int> &
Recorder::serverPState(ServerId id) const
{
    if (!options_.servers || id >= server_pstate_.size())
        util::panic("Recorder::serverPState(%u): not captured", id);
    return server_pstate_[id];
}

const std::vector<double> &
Recorder::enclosurePower(EnclosureId id) const
{
    if (!options_.enclosures || id >= enclosure_power_.size())
        util::panic("Recorder::enclosurePower(%u): not captured", id);
    return enclosure_power_[id];
}

void
Recorder::writeCsv(std::ostream &out) const
{
    util::CsvWriter w(out);
    std::vector<std::string> header{"tick"};
    if (options_.group) {
        header.push_back("group_w");
        header.push_back("served");
        header.push_back("demanded");
    }
    if (options_.enclosures) {
        for (size_t e = 0; e < enclosure_power_.size(); ++e)
            header.push_back("enc" + std::to_string(e) + "_w");
    }
    if (options_.servers) {
        for (size_t s = 0; s < server_power_.size(); ++s) {
            header.push_back("srv" + std::to_string(s) + "_w");
            header.push_back("srv" + std::to_string(s) + "_util");
            header.push_back("srv" + std::to_string(s) + "_p");
        }
    }
    if (faults_ || health_)
        header.push_back("faults");
    w.rowFromFields(header);

    for (size_t i = 0; i < ticks_.size(); ++i) {
        std::vector<std::string> row{std::to_string(ticks_[i])};
        auto num = [](double v) {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%.4f", v);
            return std::string(buf);
        };
        if (options_.group) {
            row.push_back(num(group_power_[i]));
            row.push_back(num(group_served_[i]));
            row.push_back(num(group_demanded_[i]));
        }
        if (options_.enclosures) {
            for (const auto &series : enclosure_power_)
                row.push_back(num(series[i]));
        }
        if (options_.servers) {
            for (size_t s = 0; s < server_power_.size(); ++s) {
                row.push_back(num(server_power_[s][i]));
                row.push_back(num(server_util_[s][i]));
                row.push_back(std::to_string(server_pstate_[s][i]));
            }
        }
        if (faults_ || health_)
            row.push_back(std::to_string(active_faults_[i]));
        w.rowFromFields(row);
    }
}

void
Recorder::saveState(ckpt::SectionWriter &w) const
{
    auto putSizeVec = [&w](const std::vector<size_t> &v) {
        w.putU64(v.size());
        for (size_t x : v)
            w.putU64(x);
    };
    auto putIntVec = [&w](const std::vector<int> &v) {
        w.putU64(v.size());
        for (int x : v)
            w.putI64(x);
    };
    putSizeVec(ticks_);
    putSizeVec(active_faults_);
    w.putDoubleVec(group_power_);
    w.putDoubleVec(group_served_);
    w.putDoubleVec(group_demanded_);
    w.putU64(server_power_.size());
    for (size_t s = 0; s < server_power_.size(); ++s) {
        w.putDoubleVec(server_power_[s]);
        w.putDoubleVec(server_util_[s]);
        putIntVec(server_pstate_[s]);
    }
    w.putU64(enclosure_power_.size());
    for (const auto &v : enclosure_power_)
        w.putDoubleVec(v);
}

void
Recorder::loadState(ckpt::SectionReader &r)
{
    auto getSizeVec = [&r](std::vector<size_t> &v) {
        v.resize(static_cast<size_t>(r.getU64()));
        for (size_t &x : v)
            x = static_cast<size_t>(r.getU64());
    };
    auto getIntVec = [&r](std::vector<int> &v) {
        v.resize(static_cast<size_t>(r.getU64()));
        for (int &x : v)
            x = static_cast<int>(r.getI64());
    };
    getSizeVec(ticks_);
    getSizeVec(active_faults_);
    group_power_ = r.getDoubleVec();
    group_served_ = r.getDoubleVec();
    group_demanded_ = r.getDoubleVec();
    auto servers = static_cast<size_t>(r.getU64());
    if (servers != server_power_.size())
        util::fatal("recorder restore: snapshot captured %zu servers, "
                    "recorder is configured for %zu",
                    servers, server_power_.size());
    for (size_t s = 0; s < servers; ++s) {
        server_power_[s] = r.getDoubleVec();
        server_util_[s] = r.getDoubleVec();
        getIntVec(server_pstate_[s]);
    }
    auto encs = static_cast<size_t>(r.getU64());
    if (encs != enclosure_power_.size())
        util::fatal("recorder restore: snapshot captured %zu enclosures, "
                    "recorder is configured for %zu",
                    encs, enclosure_power_.size());
    for (auto &v : enclosure_power_)
        v = r.getDoubleVec();
}

} // namespace sim
} // namespace nps
