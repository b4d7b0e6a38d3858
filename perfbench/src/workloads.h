// The four benchmark workloads. Each Make*Fixture writes the checkpoints a
// workload serves into args.work_dir; it runs in its own process so that
// the measured process's peak RSS holds only what the workload does. Each
// Run* measures one workload into `report`.
#ifndef MSDMIXER_PERFBENCH_WORKLOADS_H_
#define MSDMIXER_PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

bool MakeOfflineFixture(const Args& args);
void RunOffline(const Args& args, Report* report);

bool MakeOnlineFixture(const Args& args);
void RunOnline(const Args& args, Report* report);

void RunTrain(const Args& args, Report* report);

}  // namespace perfbench

#endif  // MSDMIXER_PERFBENCH_WORKLOADS_H_
