// Host identification and process memory, recorded with every result.
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <string>

#include "tensor/kernels.h"
#include "tensor/parallel.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

double PeakRssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

std::string HostReport() {
  namespace kernels = adaptraj::kernels;
  std::string env;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    if (std::strncmp(*e, "ADAPTRAJ_", 9) == 0) env += std::string(" ") + *e;
  }
  return "host: nproc=" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) + " cpu=\"" +
         CpuModel() + "\" gemm_path=" +
         (kernels::SelectGemmPath() == kernels::GemmPath::kAvx512 ? "avx512" : "portable") +
         " simd_transcendentals=" + (kernels::SimdTranscendentalsActive() ? "on" : "off") +
         " kernel_threads=" + std::to_string(adaptraj::parallel::NumThreads()) +
         " train_workers=" + std::to_string(adaptraj::parallel::NumTrainWorkers()) +
         " adaptraj_env=" + (env.empty() ? std::string("none") : env);
}

}  // namespace perfbench
